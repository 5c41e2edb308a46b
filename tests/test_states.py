"""Statevector primitives: construction, unitaries, measurement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgeodesic import (
    StateVector,
    basis_state,
    build_register,
    invert_about_average,
    measure_register,
    new_uniform,
    phase_flip,
    probabilities,
    qft,
    PeriodInstance,
)


def random_state(dim, rng, complex_amps=True):
    amps = rng.normal(size=dim) + (1j * rng.normal(size=dim) if complex_amps else 0.0)
    amps = amps / np.linalg.norm(amps)
    return StateVector(amps, (dim,))


@st.composite
def register_states(draw, count=1):
    """``count`` random states of one random shape, single register or pair,
    with a random share of the amplitudes set to zero."""
    shape = draw(st.one_of(st.tuples(st.integers(1, 64)),
                           st.tuples(st.integers(1, 16), st.integers(1, 16))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sparsity = draw(st.floats(0.0, 0.9))
    states = []
    for _ in range(count):
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        amps[rng.random(shape) < sparsity] = 0.0
        amps.flat[rng.integers(amps.size)] = 1.0  # never all zero
        states.append(StateVector(amps.ravel() / np.linalg.norm(amps), shape))
    return states


class TestConstruction:
    def test_uniform_dim_1(self):
        assert np.allclose(new_uniform(1).amplitudes, [1.0])

    def test_uniform_dim_4(self):
        assert np.allclose(new_uniform(4).amplitudes, [0.5] * 4)

    def test_uniform_dim_100_normalized(self):
        state = new_uniform(100)
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-12

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            new_uniform(0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StateVector(np.ones(4) / 2.0, (2, 3))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            StateVector(np.ones(4), (4,))

    def test_pair_shape(self):
        state = basis_state(6, 0, (2, 3))
        assert state.is_pair
        assert state.as_matrix().shape == (2, 3)


class TestProbabilities:
    def test_uniform(self):
        assert np.allclose(probabilities(new_uniform(4)), [0.25] * 4)

    def test_basis(self):
        assert np.allclose(probabilities(basis_state(2, 0)), [1.0, 0.0])

    def test_grover_one_iteration_n4(self):
        # hand recursion: k1 = (2/4)(1/2) + (6/4)(1/2) = 1
        state = new_uniform(4)
        state = invert_about_average(phase_flip(state, {0}))
        assert np.allclose(probabilities(state), [1.0, 0.0, 0.0, 0.0], atol=1e-12)


class TestPhaseFlip:
    def test_single_marked(self):
        state = phase_flip(new_uniform(4), {0})
        assert np.allclose(state.amplitudes, [-0.5, 0.5, 0.5, 0.5])

    def test_empty_marked_identity(self):
        state = new_uniform(4)
        assert np.array_equal(phase_flip(state, set()).amplitudes, state.amplitudes)

    def test_all_marked_global_phase(self):
        state = new_uniform(4)
        flipped = phase_flip(state, range(4))
        assert np.allclose(flipped.amplitudes, -state.amplitudes)
        assert np.allclose(probabilities(flipped), probabilities(state))

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        state = random_state(64, rng)
        flipped = phase_flip(state, rng.choice(64, size=10, replace=False))
        assert abs(flipped.norm() - 1.0) < 1e-12


class TestInvertAboutAverage:
    def test_uniform_fixed_point(self):
        state = new_uniform(8)
        assert np.allclose(invert_about_average(state).amplitudes,
                           state.amplitudes, atol=1e-15)

    def test_flipped_uniform_concentrates(self):
        state = StateVector(np.array([-0.5, 0.5, 0.5, 0.5]), (4,))
        assert np.allclose(invert_about_average(state).amplitudes,
                           [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_norm_preserved_random(self):
        state = random_state(33, np.random.default_rng(11))
        assert abs(invert_about_average(state).norm() - 1.0) < 1e-12

    def test_involution(self):
        state = random_state(17, np.random.default_rng(3))
        twice = invert_about_average(invert_about_average(state))
        assert np.allclose(twice.amplitudes, state.amplitudes, atol=1e-12)

    def test_pair_state_is_rejected(self):
        with pytest.raises(ValueError, match="acts on a single register"):
            invert_about_average(StateVector(np.full(12, 1 / np.sqrt(12)), (4, 3)))


class TestQFT:
    def test_uniform_to_zero(self):
        state = qft(new_uniform(8))
        assert np.allclose(state.amplitudes, basis_state(8, 0).amplitudes, atol=1e-12)

    def test_zero_to_uniform(self):
        state = qft(basis_state(8, 0))
        assert np.allclose(state.amplitudes, new_uniform(8).amplitudes, atol=1e-12)

    def test_sign_convention_q4(self):
        # direct evaluation of the transform sum for |1>
        state = qft(basis_state(4, 1))
        expected = np.array([1.0, 1.0j, -1.0, -1.0j]) / 2.0
        assert np.allclose(state.amplitudes, expected, atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 8, 256, 2**14])
    def test_roundtrip_identity(self, dim):
        state = random_state(dim, np.random.default_rng(dim))
        back = qft(qft(state), inverse=True)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-10

    def test_pair_register_axis(self):
        inst = PeriodInstance(15, 2)
        state = build_register(inst)
        transformed = qft(state, register=0)
        manual = np.fft.ifft(state.as_matrix(), axis=0, norm="ortho")
        assert np.allclose(transformed.as_matrix(), manual, atol=1e-14)
        assert abs(transformed.norm() - 1.0) < 1e-12

    def test_invalid_register(self):
        with pytest.raises(ValueError):
            qft(new_uniform(4), register=1)

    @settings(max_examples=150, deadline=None)
    @given(register_states(count=2), st.integers(0, 1))
    def test_unitary_and_round_trip(self, states, register):
        a, b = states
        register = register if a.is_pair else 0
        fa, fb = qft(a, register), qft(b, register)
        assert fa.shape == a.shape
        assert abs(np.vdot(fa.amplitudes, fb.amplitudes)
                   - np.vdot(a.amplitudes, b.amplitudes)) < 1e-12
        for state, forward in ((a, fa), (b, fb)):
            assert abs(forward.norm() - 1.0) < 1e-12
            back = qft(forward, register, inverse=True)
            assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12
            there = qft(state, register, inverse=True)
            assert np.max(np.abs(qft(there, register).amplitudes
                                 - state.amplitudes)) < 1e-12

    @pytest.mark.parametrize("shape,register", [((8,), 0), ((4, 3), 0), ((4, 3), 1)])
    def test_matrix_is_unitary(self, shape, register):
        dim = int(np.prod(shape))
        columns = [qft(basis_state(dim, i, shape), register).amplitudes for i in range(dim)]
        matrix = np.stack(columns, axis=1)
        assert np.allclose(matrix.conj().T @ matrix, np.eye(dim), atol=1e-12)


def copied_projection(state, register, outcome):
    """Copy the whole state, zero it, write the kept slice back, renormalise."""
    mat = state.amplitudes.reshape(state.shape).copy()
    kept = (slice(None),) * register + (outcome,)
    keep = mat[kept].copy()
    mat[:] = 0.0
    mat[kept] = keep
    amps = mat.ravel()
    return amps / np.sqrt(np.sum(np.abs(amps) ** 2))


class TestMeasureRegister:
    @settings(max_examples=200, deadline=None)
    @given(register_states(), st.integers(0, 1), st.integers(0, 2**32 - 1))
    def test_outcome_and_collapse(self, states, register, seed):
        (state,) = states
        register = register if state.is_pair else 0
        outcome, collapsed = measure_register(state, register, np.random.default_rng(seed))
        mat = state.amplitudes.reshape(state.shape)
        marginal = np.sum(np.abs(mat) ** 2, axis=tuple(
            axis for axis in range(mat.ndim) if axis != register))
        assert marginal[outcome] > 0.0
        assert collapsed.shape == state.shape
        assert abs(collapsed.norm() - 1.0) < 1e-12
        support = np.zeros(state.shape, dtype=bool)
        support[(slice(None),) * register + (outcome,)] = True
        assert not np.any(collapsed.amplitudes[~support.ravel()])
        # bit-identical to the copy-and-zero projection
        assert np.array_equal(collapsed.amplitudes,
                              copied_projection(state, register, outcome))
    def test_register_state_marginal_and_collapse(self):
        # the two-register state for N=15, y=2, q=256
        inst = PeriodInstance(15, 2)
        state = build_register(inst)
        mat = state.as_matrix()
        marginal = np.sum(np.abs(mat) ** 2, axis=0)
        # brute-force marginal: orbit of 2 mod 15 is {1, 2, 4, 8}, each 64 times
        expected = np.zeros(15)
        for value in (1, 2, 4, 8):
            expected[value] = 0.25
        assert np.allclose(marginal, expected, atol=1e-12)

        rng = np.random.default_rng(0)
        outcome, collapsed = measure_register(state, 1, rng)
        assert outcome in (1, 2, 4, 8)
        assert abs(collapsed.norm() - 1.0) < 1e-12

    def test_collapsed_support_for_outcome_2(self):
        inst = PeriodInstance(15, 2)
        state = build_register(inst)
        for seed in range(40):
            outcome, collapsed = measure_register(
                state, 1, np.random.default_rng(seed))
            if outcome == 2:
                break
        else:
            pytest.fail("outcome 2 never observed in 40 seeds")
        support = np.nonzero(np.abs(collapsed.as_matrix()).sum(axis=1) > 1e-12)[0]
        expected = np.array([a for a in range(256) if pow(2, a, 15) == 2])
        assert np.array_equal(support, expected)
        assert support.size == 64
        amplitudes = collapsed.as_matrix()[support, outcome]
        assert np.allclose(amplitudes, 1.0 / 8.0, atol=1e-12)

    def test_basis_state_deterministic(self):
        state = basis_state(6, 4, (2, 3))
        outcome, collapsed = measure_register(state, 0, np.random.default_rng(1))
        assert outcome == 1  # flat index 4 = (1, 1) in a (2, 3) register
        assert np.allclose(collapsed.amplitudes, state.amplitudes)

    def test_seeded_determinism(self):
        state = qft(new_uniform(16), inverse=True)
        results = [measure_register(state, 0, np.random.default_rng(123))[0]
                   for _ in range(3)]
        assert len(set(results)) == 1

    def test_outcome_frequencies_match_marginal(self):
        """1e5 seeded trials stay inside 3-sigma multinomial bounds."""
        inst = PeriodInstance(15, 2)
        state = build_register(inst)
        rng = np.random.default_rng(2024)
        trials = 10**5
        counts = np.zeros(15, dtype=int)
        for _ in range(trials):
            outcome, _ = measure_register(state, 1, rng)
            counts[outcome] += 1
        for value in (1, 2, 4, 8):
            expected = trials * 0.25
            sigma = np.sqrt(trials * 0.25 * 0.75)
            assert abs(counts[value] - expected) <= 3 * sigma
        assert counts.sum() == trials

    def test_single_register_measurement(self):
        outcome, collapsed = measure_register(
            new_uniform(8), 0, np.random.default_rng(42))
        assert 0 <= outcome < 8
        assert np.allclose(probabilities(collapsed),
                           np.eye(8)[outcome], atol=1e-12)
