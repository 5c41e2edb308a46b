"""Search dynamics: recursion, analytic path, simulation, and their agreement."""

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgeodesic import (
    GroverInstance,
    RecursionState,
    analytic_trajectory,
    marked_mass_after,
    optimal_iterations,
    phi_of_step,
    recursion_step,
    run_grover,
)
from qgeodesic import cli
from qgeodesic.geometry import (
    GeodesicState,
    _residuals,
    action,
    fisher_discrete,
    geodesic_residual_profile,
    integrate_geodesic,
)
from qgeodesic.grover import class_path, recursion_trajectory


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

    @pytest.mark.parametrize("marked,message", [
        ([], "marked set must be non-empty"),
        (np.array([], dtype=np.int64), "marked set must be non-empty"),
        ([0, 1, 2, 3, 3], r"marked set must be a proper subset \(4 >= 4\)"),
        ([3, 3, -1], r"marked index out of range \[0, 4\)"),
        ([-1], r"marked index out of range \[0, 4\)"),
        ([10**20], r"marked index out of range \[0, 4\)"),
        ([1, -10**20], r"marked index out of range \[0, 4\)"),
    ])
    def test_error_messages(self, marked, message):
        # checked before and after the dedupe, with no sentinel to collide
        # with index -1 and no OverflowError for indices beyond int64
        with pytest.raises(ValueError, match=message):
            GroverInstance(4, marked)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 300).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))),
        st.randoms(use_true_random=False))
    def test_normalised_from_any_collection(self, case, random):
        n, indices = case
        shuffled = np.array(indices, dtype=np.int64)
        random.shuffle(shuffled)
        span = range(min(indices), max(indices) + 1)
        forms = [(frozenset(indices), indices), (indices, indices),
                 (shuffled, indices), (span, list(span))]
        for form, given_indices in forms:
            distinct = set(given_indices)
            if len(distinct) >= n:
                continue
            expected = np.array(sorted(distinct), dtype=np.int64)
            inst = GroverInstance(n, form)
            assert inst.marked.dtype == np.int64
            assert np.array_equal(inst.marked, expected)
            assert not inst.marked.flags.writeable
            assert inst.n_marked == len(distinct)
            assert inst.theta == float(np.arcsin(np.sqrt(len(distinct) / n)))
            assert np.array_equal(np.flatnonzero(inst.marked_mask()), expected)

    def test_caller_array_is_not_aliased(self):
        given_marked = np.array([5, 1, 5])
        inst = GroverInstance(8, given_marked)
        given_marked[0] = 7
        assert inst.marked.tolist() == [1, 5]

    def test_compares_by_identity(self):
        # an array field would make a generated __eq__ raise
        inst = single_marked(4)
        assert inst == inst and inst != single_marked(4)

    def test_large_set_is_sorted_without_unique(self, monkeypatch):
        # np.unique took 0.4 s at M = 2^19; sort plus adjacent dedupe takes ms
        def refuse(*args, **kwargs):
            raise AssertionError("np.unique called")
        monkeypatch.setattr(np, "unique", refuse)
        marked = np.arange(1 << 19, dtype=np.int64)[::-1] * 2
        inst = GroverInstance(1 << 20, marked)
        assert inst.n_marked == 1 << 19
        assert np.array_equal(inst.marked, np.arange(0, 1 << 20, 2))


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
        start, end = analytic_trajectory(inst, [0.0, np.pi / 2]).probs
        assert start[0] == 0.0
        assert np.allclose(start[1:], 1.0 / 7.0)
        assert abs(end[0] - 1.0) < 1e-12
        assert np.allclose(end[1:], 0.0, atol=1e-30)

    def test_uniform_point(self):
        # sin^2(pi/6) = 1/4: the uniform distribution for N=4
        inst = single_marked(4)
        assert np.allclose(analytic_trajectory(inst, [np.pi / 6]).probs, 0.25, atol=1e-12)

    def test_continues_past_the_solution(self):
        # outside [0, pi/2] the rows stay distributions with signed amplitudes
        inst = GroverInstance(16, [1, 5, 9])
        phis = np.array([-0.3, np.pi / 2 + 0.3, 2.0])
        path = analytic_trajectory(inst, phis)
        assert np.allclose(path.probs[:, inst.marked].sum(axis=1), np.sin(phis) ** 2)
        assert np.allclose(path.amps[:, 0], np.cos(phis) / np.sqrt(13))
        assert path.amps[0, 1] < 0 and path.amps[1, 0] < 0

    def test_multi_marked_class_masses(self):
        inst = GroverInstance(16, frozenset({1, 5, 9}))
        probs = analytic_trajectory(inst, [0.7]).probs[0]
        assert np.allclose(probs[inst.marked], np.sin(0.7) ** 2 / 3)
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
                expected = analytic_trajectory(inst, [phi]).probs[0]
                assert np.max(np.abs(path.probs[j] - expected)) < 1e-10

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


@st.composite
def search_runs(draw, max_items=128):
    """Random (N, marked set, steps) with steps running up to three times
    the optimal count, well past phi = pi/2."""
    n = draw(st.integers(2, max_items))
    marked = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    inst = GroverInstance(n, frozenset(marked))
    return inst, draw(st.integers(0, 3 * optimal_iterations(inst) + 2))


def item_residual_max(path, inst):
    """Per-item residual maxima from the class path, as grover-trace takes them."""
    return np.max(np.abs(_residuals(path) / np.sqrt(inst.class_sizes)), axis=1)


# Bounds on grover-trace's derived columns, fixed before any run at scale.
# Each step turns the state by 2 theta, so up to rounding the Fisher column
# is 4, the residual 0 and the action after j steps 2 j theta.
TRACE_BOUNDS = {"fisher_estimate": 1e-9, "geodesic_residual_max": 1e-12,
                "action_cumulative": 1e-10}


def trace_rows(inst, steps):
    """The rows of grover-trace's json document for a run of ``steps``."""
    marked = ",".join(map(str, inst.marked))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["grover-trace", str(inst.n_items), "--marked", marked,
                         "--steps", str(steps), "--format", "json"]) == 0
    return json.loads(out.getvalue())["rows"]


def trace_faults(rows, theta):
    """Each derived column's largest distance from its geodesic value:
    |fisher - 4|, the residual, and |action - 2 j theta|."""
    def column(name):
        return np.array([row[name] for row in rows])

    return {"fisher_estimate": np.max(np.abs(column("fisher_estimate") - 4.0)),
            "geodesic_residual_max": np.max(column("geodesic_residual_max")),
            "action_cumulative": np.max(np.abs(column("action_cumulative")
                                               - 2.0 * theta * column("step")))}


def dense_columns(inst, states):
    """The derived columns on the N-wide real states of steps 0..steps + 1,
    from the turn of each state to the next; step -1 is the start with its
    marked amplitudes negated, one Grover step back."""
    states = np.vstack((np.where(inst.marked_mask(), -states[0], states[0]), states))
    dot = np.sum(states[:-1] * states[1:], axis=1)
    turns = np.arctan2(
        np.linalg.norm(states[1:] - dot[:, np.newaxis] * states[:-1], axis=1), dot)
    c = (inst.n_items - 2 * inst.n_marked) / inst.n_items
    return {"fisher_estimate": (turns[:-1] + turns[1:]) ** 2 / (4.0 * inst.theta**2),
            "geodesic_residual_max": np.max(
                np.abs(states[2:] + states[:-2] - 2.0 * c * states[1:-1]), axis=1),
            "action_cumulative": np.concatenate(([0.0], np.cumsum(turns[1:-1])))}


class TestClassReduction:
    """The two-class paths against the dense per-item reference."""

    def test_recursion_step_single_marked_arithmetic(self):
        for n in (2, 3, 4, 7, 64, 1000, 2**20):
            s = RecursionState(0.3, -0.7, 5)
            expected = RecursionState((n - 2) / n * s.k + 2 * (n - 1) / n * s.l,
                                      -2 / n * s.k + (n - 2) / n * s.l, 6)
            assert recursion_step(s, n) == expected
            assert recursion_step(s, n, 1) == expected

    def test_recursion_step_many_marked(self):
        n, m = 256, 64  # theta = pi/6: one step lands on phi = pi/2
        s = recursion_step(RecursionState(1 / 16, 1 / 16), n, m)
        assert abs(m * s.k**2 - 1.0) < 1e-12
        assert abs(s.l) < 1e-12

    def test_recursion_step_many_marked_arithmetic(self):
        for n, m in ((3, 2), (7, 3), (256, 64), (1000, 999), (2**20, 2**19 + 5)):
            s = RecursionState(0.3, -0.7, 5)
            expected = RecursionState((n - 2 * m) / n * s.k + 2 * (n - m) / n * s.l,
                                      -2 * m / n * s.k + (n - 2 * m) / n * s.l, 6)
            assert recursion_step(s, n, m) == expected

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            recursion_trajectory(single_marked(8), -1)

    def test_trajectory_holds_only_its_array(self):
        # 16 B/step measured: the (steps + 1, 2) float array, nothing beside it
        steps = 10**5
        tracemalloc.start()
        try:
            recursion_trajectory(single_marked(1024), steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * steps, f"{peak / steps:.1f} B/step"

    @settings(max_examples=60, deadline=None)
    @given(search_runs(max_items=2**20))
    @example((single_marked(8), 0))
    @example((GroverInstance(2**20, range(5, 2**19)), 0))
    @example((GroverInstance(256, range(64)), 7))
    def test_trajectory_equals_chained_steps(self, run):
        """Bit for bit: the trajectory is recursion_step applied in turn."""
        inst, steps = run
        state = RecursionState(1.0 / np.sqrt(inst.n_items), 1.0 / np.sqrt(inst.n_items))
        expected = [(state.k, state.l)]
        for _ in range(steps):
            state = recursion_step(state, inst.n_items, inst.n_marked)
            expected.append((state.k, state.l))
        traj = recursion_trajectory(inst, steps)
        assert traj.dtype == np.float64 and traj.shape == (steps + 1, 2)
        assert traj.tobytes() == np.array(expected, dtype=np.float64).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(search_runs())
    def test_trajectory_matches_simulation(self, run):
        inst, steps = run
        traj = recursion_trajectory(inst, steps)
        sim = run_grover(inst, steps, record=True)
        mask = inst.marked_mask()
        assert traj.shape == (steps + 1, 2)
        assert np.max(np.abs(inst.n_marked * traj[:, 0] ** 2
                             - sim.probs[:, mask].sum(axis=1))) < 1e-12
        assert np.max(np.abs((inst.n_items - inst.n_marked) * traj[:, 1] ** 2
                             - sim.probs[:, ~mask].sum(axis=1))) < 1e-12
        expected = np.where(mask, traj[:, :1], traj[:, 1:])
        assert np.max(np.abs(sim.amps - expected)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(search_runs(), st.sampled_from([0.1, 0.03, 0.01]))
    def test_geometry_matches_item_path(self, run, dphi):
        """On a grid at step <= dphi from theta to phi_steps, padded two
        steps beyond both ends."""
        inst, steps = run
        start, end = inst.theta - 2 * dphi, phi_of_step(inst, steps) + 2 * dphi
        phis = np.linspace(start, end, int(np.ceil((end - start) / dphi)) + 1)
        reduced, dense = class_path(phis), analytic_trajectory(inst, phis)
        assert np.max(np.abs(fisher_discrete(reduced).fisher
                             - fisher_discrete(dense).fisher)) < 1e-12
        assert abs(action(reduced, phis[1], phis[-2])
                   - action(dense, phis[1], phis[-2])) < 1e-12
        _, profile = geodesic_residual_profile(dense)
        assert np.max(np.abs(item_residual_max(reduced, inst) - profile)) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(search_runs(max_items=64))
    def test_oscillator_on_classes_matches_items(self, run):
        inst, steps = run
        sizes = inst.class_sizes
        theta, mask = inst.theta, inst.marked_mask()
        v = np.where(mask, np.cos(theta) / np.sqrt(sizes[0]),
                     -np.sin(theta) / np.sqrt(sizes[1]))
        items = GeodesicState(np.full(inst.n_items, 1 / np.sqrt(inst.n_items)), v, theta)
        classes = GeodesicState(np.sqrt(sizes) / np.sqrt(inst.n_items),
                                np.array([np.cos(theta), -np.sin(theta)]), theta)
        end = phi_of_step(inst, steps) + 0.1
        dense = integrate_geodesic(items, 4.0, end, 5e-3)[-1].x
        reduced = integrate_geodesic(classes, 4.0, end, 5e-3)[-1].x / np.sqrt(sizes)
        assert np.max(np.abs(dense - np.where(mask, reduced[0], reduced[1]))) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(search_runs(max_items=64))
    def test_grover_trace_matches_dense_reference(self, run):
        """Every column of grover-trace against the N-wide states of
        run_grover: their class sums, and the Fisher, residual and action
        of their own turns."""
        inst, steps = run
        rows = trace_rows(inst, steps)
        dense = run_grover(inst, steps + 1, record=True)
        mask = inst.marked_mask()
        for j, row in enumerate(rows):
            assert row["step"] == j and row["phi"] == dense.phis[j]
            assert abs(row["p_marked"] - dense.probs[j, mask].sum()) < 1e-12
            assert abs(row["p_unmarked"] - dense.probs[j, ~mask].sum()) < 1e-12
        for name, fault in trace_faults(rows, inst.theta).items():
            assert fault <= TRACE_BOUNDS[name], name
        for name, reference in dense_columns(inst, dense.amps.real).items():
            column = np.array([row[name] for row in rows])
            assert np.max(np.abs(column - reference)) <= TRACE_BOUNDS[name], name

    @pytest.mark.parametrize("n_items,marked,steps", [
        (16, [0, 5], 4), (64, [0], 6), (1024, [1, 2, 3], 40), (2**20, [7], 100)])
    def test_a_reversed_step_fails_the_bounds(self, monkeypatch, n_items, marked, steps):
        """A run that visits step j + 1 before step j, halfway."""
        trajectory = cli.recursion_trajectory

        def reversed_step(inst, steps, memory_cap):
            amps = trajectory(inst, steps, memory_cap)
            j = steps // 2
            amps[[j, j + 1]] = amps[[j + 1, j]]
            return amps

        monkeypatch.setattr(cli, "recursion_trajectory", reversed_step)
        inst = GroverInstance(n_items, marked)
        faults = trace_faults(trace_rows(inst, steps), inst.theta)
        assert faults["fisher_estimate"] > TRACE_BOUNDS["fisher_estimate"]
        assert faults["geodesic_residual_max"] > TRACE_BOUNDS["geodesic_residual_max"]
