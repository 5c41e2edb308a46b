"""Search dynamics: recursion, analytic path, simulation, and their agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgeodesic import (
    GroverInstance,
    RecursionState,
    analytic_path,
    analytic_trajectory,
    marked_mass_after,
    optimal_iterations,
    phi_of_step,
    recursion_step,
    run_grover,
)


def single_marked(n):
    return GroverInstance(n, frozenset({0}))


class TestInstance:
    def test_theta_definition(self):
        inst = GroverInstance(256, frozenset(range(64)))
        assert abs(np.sin(inst.theta) ** 2 - 64 / 256) < 1e-12
        assert abs(inst.theta - np.pi / 6) < 1e-12

    def test_invalid_instances(self):
        with pytest.raises(ValueError):
            GroverInstance(1, frozenset({0}))
        with pytest.raises(ValueError):
            GroverInstance(4, frozenset())
        with pytest.raises(ValueError):
            GroverInstance(4, frozenset(range(4)))
        with pytest.raises(ValueError):
            GroverInstance(4, frozenset({4}))


class TestRecursion:
    def test_n4_first_step(self):
        s1 = recursion_step(RecursionState(0.5, 0.5), 4)
        assert abs(s1.k - 1.0) < 1e-15
        assert abs(s1.l - 0.0) < 1e-15
        assert s1.step == 1

    def test_n2_first_step(self):
        r = 1.0 / np.sqrt(2.0)
        s1 = recursion_step(RecursionState(r, r), 2)
        assert abs(s1.k - r) < 1e-15
        assert abs(s1.l + r) < 1e-15

    @pytest.mark.parametrize("n", [2, 4, 7, 100, 4096])
    def test_normalization_preserved_100_steps(self, n):
        s = RecursionState(1.0 / np.sqrt(n), 1.0 / np.sqrt(n))
        for _ in range(100):
            s = recursion_step(s, n)
            assert abs(s.k**2 + (n - 1) * s.l**2 - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [4, 64, 1024])
    def test_matches_closed_form(self, n):
        theta = np.arcsin(1.0 / np.sqrt(n))
        s = RecursionState(np.sin(theta), np.cos(theta) / np.sqrt(n - 1))
        for j in range(1, 50):
            s = recursion_step(s, n)
            assert abs(s.k - np.sin((2 * j + 1) * theta)) < 1e-12


class TestAnalyticPath:
    def test_endpoints(self):
        inst = single_marked(8)
        start = analytic_path(inst, 0.0)
        assert start[0] == 0.0
        assert np.allclose(start[1:], 1.0 / 7.0)
        end = analytic_path(inst, np.pi / 2)
        assert abs(end[0] - 1.0) < 1e-12
        assert np.allclose(end[1:], 0.0, atol=1e-30)

    def test_uniform_point(self):
        # sin^2(pi/6) = 1/4: the uniform distribution for N=4
        inst = single_marked(4)
        assert np.allclose(analytic_path(inst, np.pi / 6), 0.25, atol=1e-12)

    def test_domain_errors(self):
        inst = single_marked(4)
        with pytest.raises(ValueError):
            analytic_path(inst, -0.1)
        with pytest.raises(ValueError):
            analytic_path(inst, np.pi / 2 + 0.1)

    def test_multi_marked_class_masses(self):
        inst = GroverInstance(16, frozenset({1, 5, 9}))
        probs = analytic_path(inst, 0.7)
        marked = sorted(inst.marked)
        assert np.allclose(probs[marked], np.sin(0.7) ** 2 / 3)
        assert abs(probs.sum() - 1.0) < 1e-12


class TestPhiOfStep:
    def test_examples(self):
        inst = single_marked(4)
        assert abs(phi_of_step(inst, 0) - np.pi / 6) < 1e-15
        assert abs(phi_of_step(inst, 1) - np.pi / 2) < 1e-15
        inst100 = single_marked(100)
        assert abs(phi_of_step(inst100, 0) - np.arcsin(0.1)) < 1e-15


class TestOptimalIterations:
    def test_n4(self):
        inst = single_marked(4)
        assert optimal_iterations(inst) == 1
        assert abs(marked_mass_after(inst, 1) - 1.0) < 1e-12

    def test_n_2_20(self):
        inst = single_marked(2**20)
        # floor(pi / (4 arcsin(2^-10))); cross-check (pi/4)*1024 = 804.2
        assert optimal_iterations(inst) == 804

    def test_multi_marked(self):
        inst = GroverInstance(256, frozenset(range(64)))
        assert optimal_iterations(inst) == 1

    @pytest.mark.parametrize("k", range(2, 21))
    def test_success_probability_bound(self, k):
        inst = single_marked(2**k)
        mass = marked_mass_after(inst, optimal_iterations(inst))
        assert mass >= 1.0 - 1.0 / 2**k


class TestRunGrover:
    def test_n4_one_step(self):
        path = run_grover(single_marked(4), 1)
        assert np.allclose(path.probs[1], [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_zero_steps_uniform(self):
        path = run_grover(single_marked(8), 0)
        assert np.allclose(path.probs[0], 1.0 / 8.0, atol=1e-15)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            run_grover(single_marked(8), -1)

    def test_n1024_25_steps_closed_form(self):
        path = run_grover(single_marked(1024), 25)
        expected = np.sin(51 * np.arcsin(1.0 / 32.0)) ** 2
        assert abs(expected - 0.99945) < 5e-5  # sanity on the closed form
        assert abs(path.probs[-1, 0] - expected) < 1e-10

    @pytest.mark.parametrize("n", [8, 256, 2**14])
    def test_matches_recursion_three_times_optimal(self, n):
        inst = single_marked(n)
        steps = 3 * optimal_iterations(inst)
        path = run_grover(inst, steps)
        s = RecursionState(1.0 / np.sqrt(n), 1.0 / np.sqrt(n))
        assert abs(path.probs[0, 0] - s.k**2) < 1e-10
        for j in range(1, steps + 1):
            s = recursion_step(s, n)
            assert abs(path.probs[j, 0] - s.k**2) < 1e-10

    @pytest.mark.parametrize("n", [4, 64, 1024])
    def test_matches_analytic_at_embedded_points(self, n):
        inst = single_marked(n)
        steps = optimal_iterations(inst)
        path = run_grover(inst, steps)
        for j in range(steps + 1):
            phi = phi_of_step(inst, j)
            if phi <= np.pi / 2:
                assert np.max(np.abs(path.probs[j] - analytic_path(inst, phi))) < 1e-10

    def test_class_uniformity_and_reality(self):
        inst = GroverInstance(128, frozenset({3, 77}))
        path = run_grover(inst, 3 * optimal_iterations(inst), record=True)
        mask = inst.marked_mask()
        for j in range(path.n_samples):
            amps = path.amps[j]
            assert np.max(np.abs(amps.imag)) < 1e-14
            marked = amps[mask]
            unmarked = amps[~mask]
            assert np.max(np.abs(marked - marked[0])) < 1e-12
            assert np.max(np.abs(unmarked - unmarked[0])) < 1e-12

    def test_multi_marked_mass_closed_form(self):
        inst = GroverInstance(256, frozenset(range(64)))
        path = run_grover(inst, 3)
        mask = inst.marked_mask()
        for k in range(4):
            mass = path.probs[k, mask].sum()
            assert abs(mass - marked_mass_after(inst, k)) < 1e-10

    def test_final_mass_closed_form(self):
        inst = single_marked(2048)
        steps = optimal_iterations(inst)
        path = run_grover(inst, steps)
        assert abs(path.probs[-1, 0] - marked_mass_after(inst, steps)) < 1e-10

    def test_record_controls_amplitude_retention(self):
        inst = single_marked(8)
        assert run_grover(inst, 2).amps is None
        recorded = run_grover(inst, 2, record=True)
        assert recorded.amps is not None
        assert recorded.amps.shape == recorded.probs.shape
        assert np.allclose(np.abs(recorded.amps) ** 2, recorded.probs, atol=1e-14)


class TestAnalyticTrajectory:
    def test_signed_amplitudes_past_solution_point(self):
        inst = single_marked(4)
        phis = np.linspace(inst.theta, 2.5, 50)
        path = analytic_trajectory(inst, phis)
        assert path.amps is not None
        assert np.any(path.amps < 0)  # unmarked amplitudes turn negative
        assert np.allclose(path.probs.sum(axis=1), 1.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 64).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))),
        st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=20))
    def test_rows_match_per_sample_closed_form(self, instance, phis):
        """The vectorised trajectory equals the per-sample closed form
        bit for bit: marked sin(phi)/sqrt(M), unmarked cos(phi)/sqrt(N-M)."""
        n, marked = instance
        inst = GroverInstance(n, frozenset(marked))
        path = analytic_trajectory(inst, np.array(phis))
        for phi, row in zip(path.phis, path.amps):
            expected = np.full(n, np.cos(phi) / np.sqrt(n - len(marked)))
            expected[sorted(marked)] = np.sin(phi) / np.sqrt(len(marked))
            assert np.array_equal(row, expected)
