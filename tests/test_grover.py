"""Search dynamics: recursion, analytic path, simulation, and their agreement."""

import contextlib
import io
import json

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
from qgeodesic import cli
from qgeodesic.geometry import (
    GeodesicState,
    _residuals,
    action,
    fisher_discrete,
    geodesic_residual_profile,
    integrate_geodesic,
)
from qgeodesic.grover import amplification_path, class_path, recursion_trajectory


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
    residuals = _residuals(path, 2, path.n_samples - 2) / np.sqrt(inst.class_sizes)
    return np.max(np.abs(residuals), axis=1)


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

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            recursion_trajectory(single_marked(8), -1)

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
        """On the grover-trace grid from theta to phi_steps."""
        inst, steps = run
        phis = cli._fine_grid(inst.theta, phi_of_step(inst, steps), dphi)
        reduced, dense = class_path(phis), analytic_trajectory(inst, phis)
        assert np.max(np.abs(fisher_discrete(reduced).fisher
                             - fisher_discrete(dense).fisher)) < 1e-12
        assert abs(action(reduced, phis[1], phis[-2])
                   - action(dense, phis[1], phis[-2])) < 1e-12
        _, profile = geodesic_residual_profile(dense)
        assert np.max(np.abs(item_residual_max(reduced, inst) - profile)) < 1e-10

    def test_amplification_path_is_the_class_path(self):
        inst = GroverInstance(64, frozenset({1, 9}))
        path = amplification_path(inst, 0.01)
        assert path.dim == 2
        assert path.phis[0] == inst.theta and path.phis[-1] == np.pi / 2
        assert np.array_equal(path.amps, np.stack(
            [np.sin(path.phis), np.cos(path.phis)], axis=1))

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
        """Every column of grover-trace against the parent's N-wide pipeline:
        run_grover class sums, Fisher and residual profile of
        analytic_trajectory on the same fine grid."""
        inst, steps = run
        marked = ",".join(str(i) for i in sorted(inst.marked))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["grover-trace", str(inst.n_items), "--marked", marked,
                             "--steps", str(steps), "--format", "json"]) == 0
        rows = json.loads(out.getvalue())["rows"]

        sim = run_grover(inst, steps)
        mask = inst.marked_mask()
        fine = analytic_trajectory(inst, cli._fine_grid(sim.phis[0], sim.phis[-1], 0.01))
        fisher = fisher_discrete(fine).fisher
        res_phis, res_max = geodesic_residual_profile(fine)
        for j, row in enumerate(rows):
            assert row["step"] == j and row["phi"] == sim.phis[j]
            assert abs(row["p_marked"] - sim.probs[j, mask].sum()) < 1e-12
            assert abs(row["p_unmarked"] - sim.probs[j, ~mask].sum()) < 1e-12
            assert abs(row["fisher_estimate"]
                       - np.interp(sim.phis[j], fine.phis, fisher)) < 1e-12
            assert abs(row["geodesic_residual_max"]
                       - np.interp(sim.phis[j], res_phis, res_max)) < 1e-10
