"""Fisher estimation, metric identities, geodesic residuals, integration."""

import decimal
import math
import re
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgeodesic import (
    GeodesicState,
    GeodesicTrajectory,
    GroverInstance,
    ProbabilityPath,
    StateVector,
    action,
    analytic_trajectory,
    basis_state,
    fisher_discrete,
    fubini_study_distance,
    geodesic_residual_profile,
    input_information,
    integrate_geodesic,
    new_uniform,
    optimal_iterations,
    phi_of_step,
    run_grover,
    unitarity_identity_check,
)
from qgeodesic.geometry import _rk4_propagate, _rk4_schedule, class_step_angles


def grover_fine_path(n, dphi=0.01, lo=None, hi=np.pi / 2):
    inst = GroverInstance(n, frozenset({0}))
    lo = inst.theta if lo is None else lo
    count = int(np.ceil((hi - lo) / dphi)) + 1
    return analytic_trajectory(inst, np.linspace(lo, hi, count))


def two_outcome_path(phis):
    """The N=2 closed-form family p = (sin^2, cos^2)."""
    phis = np.asarray(phis, dtype=float)
    amps = np.stack([np.sin(phis), np.cos(phis)], axis=1)
    return ProbabilityPath(phis, amps**2, amps)


def constant_path(probs, n_samples=7):
    probs = np.asarray(probs, dtype=float)
    phis = np.linspace(0.0, 1.0, n_samples)
    return ProbabilityPath(phis, np.tile(probs, (n_samples, 1)))


def injected_phase_path(n_samples=41, dphi=0.01):
    """Stationary distribution with a phase winding on the first component."""
    p = np.array([0.4, 0.3, 0.2, 0.1])
    phis = dphi * np.arange(n_samples)
    amps = np.tile(np.sqrt(p).astype(complex), (n_samples, 1))
    amps[:, 0] *= np.exp(1j * phis)
    return ProbabilityPath(phis, np.tile(p, (n_samples, 1)), amps)


@st.composite
def varying_fisher_paths(draw):
    """Two-outcome paths p = (sin^2 g, cos^2 g) with g = phi + c phi^2, so
    the Fisher value 4 g'^2 varies, on random strictly increasing grids."""
    n = draw(st.integers(3, 60))
    steps = draw(st.lists(st.floats(1e-3, 0.05), min_size=n - 1, max_size=n - 1))
    phis = draw(st.floats(0.0, 1.0)) + np.concatenate(([0.0], np.cumsum(steps)))
    g = phis + draw(st.floats(-0.5, 0.5)) * phis**2
    amps = np.stack([np.sin(g), np.cos(g)], axis=1)
    return ProbabilityPath(phis, amps**2, amps)


def stage_rk4(init, fisher_const, phi_end, dt):
    """Four-stage classic RK4 for xddot = -(F/4) x, with the step schedule of
    integrate_geodesic; the reference for its propagator form."""
    omega_sq = fisher_const / 4.0

    def step(x, v, h):
        k1x, k1v = v, -omega_sq * x
        k2x, k2v = v + 0.5 * h * k1v, -omega_sq * (x + 0.5 * h * k1x)
        k3x, k3v = v + 0.5 * h * k2v, -omega_sq * (x + 0.5 * h * k2x)
        k4x, k4v = v + h * k3v, -omega_sq * (x + h * k3x)
        return (x + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x),
                v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v))

    span = phi_end - init.phi
    n_full = int(np.floor(span / dt + 1e-9))
    remainder = span - n_full * dt
    states = [(init.x, init.xdot)]
    for _ in range(n_full):
        states.append(step(*states[-1], dt))
    if remainder > 1e-12 * max(1.0, span):
        states.append(step(*states[-1], remainder))
    return states


def array_rk4(init, fisher_const, phi_end, dt):
    """RK4 in its increment form stepped on numpy arrays, with the step
    schedule and phi values of integrate_geodesic: a cross-check of its
    closed form."""
    omega_sq = fisher_const / 4.0

    def coefficients(h):
        z = omega_sq * h * h
        s = h * (1.0 - z / 6.0)
        return s, z / 2.0 - z * z / 24.0, omega_sq * s

    x = np.asarray(init.x, dtype=np.float64).copy()
    v = np.asarray(init.xdot, dtype=np.float64).copy()
    span = phi_end - float(init.phi)
    n_full = int(np.floor(span / dt + 1e-9))
    remainder = span - n_full * dt
    rows = [(x, v, float(init.phi))]
    s, a, w = coefficients(dt)
    for k in range(1, n_full + 1):
        x, v = x + (s * v - a * x), v - (a * v + w * x)
        rows.append((x, v, float(init.phi) + k * dt))
    if remainder > 1e-12 * max(1.0, span):
        s, a, w = coefficients(remainder)
        x, v = x + (s * v - a * x), v - (a * v + w * x)
        rows.append((x, v, float(phi_end)))
    return rows


def exact_rk4(init, fisher_const, phi_end, dt):
    """The rows (x, xdot) of array_rk4, each step taken in 50-digit decimal
    arithmetic from the exact values of the same floats: the RK4 propagator
    of integrate_geodesic without rounding."""
    D = decimal.Decimal
    with decimal.localcontext() as context:
        context.prec = 50
        omega_sq = D(fisher_const) / 4
        span = phi_end - float(init.phi)
        n_full = math.floor(span / dt + 1e-9)
        remainder = span - n_full * dt
        steps = [dt] * n_full + [remainder] * (remainder > 1e-12 * max(1.0, span))
        x, v = [D(float(c)) for c in init.x], [D(float(c)) for c in init.xdot]
        rows = [(x, v)]
        for h in map(D, steps):
            z = omega_sq * h * h
            s = h * (1 - z / 6)
            a, w = z / 2 - z * z / 24, omega_sq * s
            x, v = ([xi + (s * vi - a * xi) for xi, vi in zip(x, v)],
                    [vi - (a * vi + w * xi) for xi, vi in zip(x, v)])
            rows.append((x, v))
    return [(np.array(x, dtype=float), np.array(v, dtype=float)) for x, v in rows]


class TestFisherDiscrete:
    def test_record_array(self):
        path = grover_fine_path(16)
        samples = fisher_discrete(path)
        assert isinstance(samples, np.recarray)
        assert samples.dtype.names == (
            "phi", "fisher", "phase_variance", "induced_speed_sq")
        assert np.array_equal(samples.phi, path.phis)

    def test_grover_path_constant_four(self):
        samples = fisher_discrete(grover_fine_path(16, dphi=0.01))
        interior = np.array([s.fisher for s in samples[1:-1]])
        assert np.max(np.abs(interior - 4.0)) < 1e-3

    def test_constant_path_zero(self):
        samples = fisher_discrete(constant_path([0.25] * 4))
        assert all(s.fisher == pytest.approx(0.0, abs=1e-30) for s in samples)

    def test_two_outcome_value(self):
        phis = 0.3 + 0.01 * np.arange(-5, 6)
        samples = fisher_discrete(two_outcome_path(phis))
        at_03 = samples[5]
        assert at_03.phi == pytest.approx(0.3)
        assert abs(at_03.fisher - 4.0) < 1e-3

    def test_induced_speed_consistency(self):
        for s in fisher_discrete(injected_phase_path()):
            assert abs(s.induced_speed_sq - (s.fisher + 4 * s.phase_variance) / 4.0) < 1e-12

    def test_phase_variance_of_winding_component(self):
        samples = fisher_discrete(injected_phase_path())
        expected = 0.4 - 0.4**2
        for s in samples[1:-1]:
            assert abs(s.fisher) < 1e-10
            assert abs(s.phase_variance - expected) < 1e-6

    def test_real_paths_have_zero_phase_variance(self):
        samples = fisher_discrete(grover_fine_path(8))
        assert all(s.phase_variance == 0.0 for s in samples)

    def test_non_monotone_rejected(self):
        path = ProbabilityPath(np.array([0.0, 0.2, 0.1]),
                               np.tile([0.5, 0.5], (3, 1)))
        with pytest.raises(ValueError):
            fisher_discrete(path)

    def test_too_few_samples_rejected(self):
        path = ProbabilityPath(np.array([0.0, 0.1]), np.tile([0.5, 0.5], (2, 1)))
        with pytest.raises(ValueError):
            fisher_discrete(path)

    def test_amplitude_form_matches_probability_form(self):
        """4 sum xdot^2 agrees with sum pdot^2/p wherever p is bounded away
        from zero (dual-route check of the regularization)."""
        h = 2e-5
        phis = np.arange(0.2, 1.3, h)
        path = two_outcome_path(phis)
        fisher_x = np.array([s.fisher for s in fisher_discrete(path)])
        pdot = np.gradient(path.probs, phis, axis=0, edge_order=2)
        fisher_p = np.sum(pdot**2 / path.probs, axis=1)
        assert path.probs.min() > 1e-6
        assert np.max(np.abs(fisher_x - fisher_p)[1:-1]) < 1e-8

    @pytest.mark.parametrize("n", [4, 16, 256, 4096])
    def test_simulated_trajectory_constancy(self, n):
        """Fisher stays within 10 dphi^2 of 4 on raw simulated trajectories."""
        inst = GroverInstance(n, frozenset({0}))
        steps = max(3, 3 * optimal_iterations(inst))
        path = run_grover(inst, steps, record=True)
        dphi = 2 * inst.theta
        fisher = np.array([s.fisher for s in fisher_discrete(path)])
        assert np.max(np.abs(fisher - 4.0)) <= 10.0 * dphi**2 + 4e-12


class TestUnitarityIdentity:
    def test_grover_path_unit_speed(self):
        report = unitarity_identity_check(grover_fine_path(8, dphi=0.01))
        assert np.max(report.residual) < 1e-3
        assert np.max(report.unit_residual) < 1e-3

    def test_stationary_path(self):
        p = np.array([0.25] * 4)
        phis = np.linspace(0.0, 1.0, 9)
        amps = np.tile(np.sqrt(p).astype(complex), (9, 1))
        report = unitarity_identity_check(ProbabilityPath(phis, np.tile(p, (9, 1)), amps))
        assert np.max(report.speed_sq) < 1e-12
        assert np.max(report.fisher) < 1e-12
        assert np.max(report.residual) < 1e-12

    def test_phase_winding_reports_variance(self):
        report = unitarity_identity_check(injected_phase_path())
        expected = 0.4 - 0.4**2  # the bracket term for a unit winding rate
        interior = slice(1, -1)
        assert np.allclose(report.residual[interior], expected, atol=1e-3)
        assert np.allclose(report.phase_variance[interior], expected, atol=1e-6)

    def test_requires_amplitudes(self):
        with pytest.raises(ValueError):
            unitarity_identity_check(constant_path([0.5, 0.5]))


class TestFubiniStudy:
    def test_identical_states(self):
        state = new_uniform(8)
        assert fubini_study_distance(state, state) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_states(self):
        assert fubini_study_distance(basis_state(4, 0), basis_state(4, 1)) \
            == pytest.approx(np.pi / 2)

    def test_uniform_vs_marked(self):
        d = fubini_study_distance(new_uniform(4), basis_state(4, 0))
        assert d == pytest.approx(np.arccos(0.5))
        assert d == pytest.approx(np.pi / 2 - np.pi / 6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fubini_study_distance(new_uniform(4), new_uniform(8))


class TestClassStepAngles:
    @pytest.mark.parametrize("n,m", [(4, 1), (16, 5), (4, 3), (1000, 999), (2**26, 1)])
    def test_each_grover_step_turns_two_theta(self, n, m):
        # the closed form at phi_j = (2j + 1) theta; past M = N/2 the turn
        # 2 theta exceeds pi/2 and is not folded to pi - 2 theta
        inst = GroverInstance(n, range(m))
        theta, phis = inst.theta, phi_of_step(inst, np.arange(8))
        amps = np.stack([np.sin(phis) / np.sqrt(m), np.cos(phis) / np.sqrt(n - m)], axis=1)
        turns = class_step_angles(amps, [m, n - m])
        assert turns.shape == (7,)
        assert np.max(np.abs(turns - 2 * theta)) < 1e-13

    def test_a_still_row_has_no_turn(self):
        amps = np.array([[0.5, 0.5], [0.5, 0.5], [-0.5, 0.5]])
        # X = (0.5, 0.5 sqrt 3) mirrored in the unmarked axis: 2 pi / 6
        turns = class_step_angles(amps, [1, 3])
        assert turns[0] == 0.0 and turns[1] == pytest.approx(np.pi / 3, abs=1e-15)


class TestAction:
    def test_grover_full_interval(self):
        path = grover_fine_path(4, dphi=0.01)
        value = action(path, np.pi / 6, np.pi / 2)
        assert abs(value - np.pi / 3) < 1e-3

    def test_matches_fubini_study_distance(self):
        n = 64
        path = grover_fine_path(n, dphi=0.01)
        inst = GroverInstance(n, frozenset({0}))
        value = action(path, inst.theta, np.pi / 2)
        dist = fubini_study_distance(new_uniform(n), basis_state(n, 0))
        assert abs(value - dist) < 1e-3

    def test_subinterval_matches_distance(self):
        path = grover_fine_path(16, dphi=0.005, lo=0.5, hi=1.4)
        lo, hi = 0.6, 1.1
        inst = GroverInstance(16, frozenset({0}))
        grid = np.array([lo, hi])
        states = analytic_trajectory(inst, grid)
        a = StateVector(states.amps[0].astype(complex), (16,))
        b = StateVector(states.amps[1].astype(complex), (16,))
        assert abs(action(path, lo, hi) - fubini_study_distance(a, b)) < 5 * 0.005**2

    def test_zero_interval(self):
        path = grover_fine_path(4)
        assert action(path, 1.0, 1.0) == 0.0

    def test_out_of_range_rejected(self):
        path = grover_fine_path(4)
        with pytest.raises(ValueError):
            action(path, 0.0, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(varying_fisher_paths(), st.data())
    def test_on_grid_bounds_are_the_trapezoid(self, path, data):
        i = data.draw(st.integers(0, path.n_samples - 2))
        j = data.draw(st.integers(i + 1, path.n_samples - 1))
        integrand = 0.5 * np.sqrt(fisher_discrete(path).fisher)
        expected = np.trapezoid(integrand[i:j + 1], path.phis[i:j + 1])
        assert abs(action(path, path.phis[i], path.phis[j]) - expected) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(varying_fisher_paths(), st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    def test_additive_over_split_intervals(self, path, fractions):
        lo, hi = path.phis[0], path.phis[-1]
        a, b, c = np.minimum(lo + np.sort(fractions) * (hi - lo), hi)
        assert abs(action(path, a, c) - action(path, a, b) - action(path, b, c)) < 1e-12

    def test_partial_cell_takes_the_cell_slope(self):
        path = two_outcome_path(np.array([0.0, 0.1, 0.3, 0.35, 0.6]))
        whole = action(path, 0.1, 0.3)
        for t in (0.25, 0.5, 0.9):
            assert action(path, 0.1, 0.1 + t * 0.2) == pytest.approx(t * whole, abs=1e-15)


class TestGeodesicResidual:
    def test_grover_path_small_residual(self):
        path = grover_fine_path(8, dphi=0.01)
        _, res = geodesic_residual_profile(path)
        assert res.max() < 1e-2

    def test_straight_line_path_fails_equation(self):
        h = 0.002
        phis = np.linspace(0.28, 0.32, 21)
        probs = np.stack([phis, 1.0 - phis], axis=1)
        path = ProbabilityPath(phis, probs)
        phis_out, profile = geodesic_residual_profile(path)
        assert phis_out[8] == phis[10]  # profile row i - 2 is sample i
        # closed-form residual of the equation of motion at phi = 0.3, per
        # coordinate x = sqrt(p), p in (phi, 1 - phi)
        phi = 0.3
        fisher = 1 / phi + 1 / (1 - phi)
        fdot = -1 / phi**2 + 1 / (1 - phi) ** 2
        expected = [(-0.25 * p**-1.5) - (fdot / fisher) * (sign * 0.5 * p**-0.5)
                    + (fisher / 4) * np.sqrt(p)
                    for p, sign in ((phi, 1), (1 - phi, -1))]
        assert abs(profile[8] - max(map(abs, expected))) < 1e-3
        assert profile[8] > 0.1

    def test_harmonic_path_solves_equation(self):
        # x = a sin(phi) + b cos(phi) with sum a^2 = sum b^2 = 1, a.b = 0
        rng = np.random.default_rng(8)
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        b -= (a @ b) / (a @ a) * a
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        phis = np.linspace(0.1, 1.2, 111)
        amps = np.outer(np.sin(phis), a) + np.outer(np.cos(phis), b)
        path = ProbabilityPath(phis, amps**2, amps)
        _, res = geodesic_residual_profile(path)
        assert res.max() < 1e-2

    def test_second_order_convergence(self):
        maxima = []
        for dphi in (0.02, 0.01, 0.005):
            _, res = geodesic_residual_profile(grover_fine_path(8, dphi=dphi))
            maxima.append(res.max())
        assert maxima[0] > maxima[1] > maxima[2]
        assert maxima[0] / maxima[1] > 3.0
        assert maxima[1] / maxima[2] > 3.0

    def test_stationary_path_guard(self):
        with pytest.raises(ValueError, match="at sample 2 below guard"):
            geodesic_residual_profile(constant_path([0.5, 0.5]))


def tied_state(dim, ties, seed):
    """A random unit x and a tangent v.  "tied" repeats the first (x, v)
    pair over every other coordinate; "signed zeros" puts 0.0 and -0.0 side
    by side, which must keep their signs."""
    rng = np.random.default_rng(seed)
    x, v = rng.normal(size=dim), rng.normal(size=dim)
    if ties == "tied":
        x[1::2], v[1::2] = x[0], v[0]
    elif ties == "signed zeros" and dim >= 3:
        x[1], x[2], v[1], v[2] = 0.0, -0.0, -0.0, -0.0
    x /= np.linalg.norm(x)
    v -= np.dot(v, x) * x  # tangent
    return x, v, float(rng.uniform(-1.0, 1.0))


class TestIntegrateGeodesic:
    def grover_initial(self, n):
        theta = np.arcsin(1.0 / np.sqrt(n))
        x = np.full(n, 1.0 / np.sqrt(n))
        v = np.full(n, -np.sin(theta) / np.sqrt(n - 1))
        v[0] = np.cos(theta)
        return GeodesicState(x, v, theta)

    def test_grover_n4_reaches_solution(self):
        states = integrate_geodesic(self.grover_initial(4), 4.0, np.pi / 2, 1e-3)
        final = states[-1]
        assert final.phi == pytest.approx(np.pi / 2)
        assert np.max(np.abs(final.x - [1.0, 0.0, 0.0, 0.0])) < 1e-8

    def test_cosine_solution(self):
        x0 = np.full(4, 0.5)
        states = integrate_geodesic(GeodesicState(x0, np.zeros(4), 0.0), 4.0, 2.0, 1e-3)
        for s in states[:: len(states) // 10]:
            assert np.max(np.abs(s.x - x0 * np.cos(s.phi))) < 1e-8

    def test_energy_conservation(self):
        rng = np.random.default_rng(17)
        x0 = rng.normal(size=6)
        x0 /= np.linalg.norm(x0)
        states = integrate_geodesic(GeodesicState(x0, np.zeros(6), 0.0),
                                    4.0, 2 * np.pi, 1e-3)
        energies = [np.sum(s.xdot**2 + s.x**2) for s in states]
        assert max(energies) - min(energies) < 1e-8

    def test_norm_preserved_for_geodesic_data(self):
        states = integrate_geodesic(self.grover_initial(16), 4.0, np.pi / 2, 1e-3)
        for s in states[:: len(states) // 20]:
            assert abs(np.sum(s.x**2) - 1.0) < 1e-9

    def test_matches_simulation(self):
        n = 16
        inst = GroverInstance(n, frozenset({0}))
        steps = optimal_iterations(inst)
        sim = run_grover(inst, steps)
        state = self.grover_initial(n)
        for j in range(1, steps + 1):
            phi = phi_of_step(inst, j)
            if phi > np.pi / 2:
                break
            state = integrate_geodesic(state, 4.0, phi, 1e-4)[-1]
            assert np.max(np.abs(state.x**2 - sim.probs[j])) < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.floats(0.1, 20.0), st.floats(2e-3, 0.1),
           st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
    def test_matches_stage_form(self, dim, fisher_const, dt, span, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=dim)
        x /= np.linalg.norm(x)
        v = rng.normal(size=dim)
        v -= np.dot(v, x) * x  # tangent
        init = GeodesicState(x, v, float(rng.uniform(-1.0, 1.0)))
        states = integrate_geodesic(init, fisher_const, init.phi + span, dt)
        reference = stage_rk4(init, fisher_const, init.phi + span, dt)
        assert len(states) == len(reference)
        for state, (ref_x, ref_v) in zip(states, reference):
            assert np.max(np.abs(state.x - ref_x)) < 1e-12
            assert np.max(np.abs(state.xdot - ref_v)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.floats(0.1, 20.0), st.floats(2e-3, 0.1),
           st.one_of(st.floats(0.0, 3.0), st.integers(0, 300)),
           st.sampled_from(["distinct", "tied", "signed zeros"]),
           st.integers(0, 2**32 - 1))
    def test_closed_form_equals_exact_rk4(self, dim, fisher_const, dt, span, ties, seed):
        """Every row near the exact RK4 rows: the closed form rounds a turn
        and a scale per row, so its error grows with the total turn omega *
        span and the largest pair radius rho = hypot(x, xdot / omega), and
        the bound is 1e-14 (1 + turn) max(1, rho) in omega x and in xdot.
        Float spans mostly end in a partial step, integer spans count whole
        steps of dt.  Array stepping agrees to 1e-12 and its phis bit for
        bit; tied coordinates share one trajectory, but 0.0 and -0.0 do not."""
        x, v, phi0 = tied_state(dim, ties, seed)
        phi_end = phi0 + (span * dt if isinstance(span, int) else span)
        init = GeodesicState(x, v, phi0)
        states = integrate_geodesic(init, fisher_const, phi_end, dt)
        reference = array_rk4(init, fisher_const, phi_end, dt)
        exact = exact_rk4(init, fisher_const, phi_end, dt)
        assert len(states) == len(reference) == len(exact)
        assert [state.phi for state in states] == [phi for _, _, phi in reference]
        assert states.phis.tobytes() == np.array([phi for _, _, phi in reference]).tobytes()
        assert states.x.shape == states.xdot.shape == (len(states), dim)
        omega = np.sqrt(fisher_const) / 2
        rho = max(1.0, float(np.max(np.hypot(x, v / omega))))
        bound = 1e-14 * (1.0 + omega * (phi_end - phi0)) * rho
        for state, (ref_x, ref_v, _), (exact_x, exact_v) in zip(states, reference, exact):
            assert state.x.shape == state.xdot.shape == (dim,)
            assert np.max(omega * np.abs(state.x - exact_x)) <= bound
            assert np.max(np.abs(state.xdot - exact_v)) <= bound
            assert np.max(np.abs(state.x - ref_x)) < 1e-12
            assert np.max(np.abs(state.xdot - ref_v)) < 1e-12
        assert states.x[0].tobytes() == x.tobytes()  # 0.0 and -0.0 kept apart
        assert states.xdot[0].tobytes() == v.tobytes()
        if ties == "tied":
            assert states.x[:, 1::2].tobytes() == np.repeat(
                states.x[:, :1], dim // 2, axis=1).tobytes()
            assert states.xdot[:, 1::2].tobytes() == np.repeat(
                states.xdot[:, :1], dim // 2, axis=1).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.floats(0.1, 8.0), st.floats(1e-3, 0.02),
           st.lists(st.one_of(st.integers(-1, 40), st.floats(0.0, 0.3)), max_size=8),
           st.sampled_from(["distinct", "tied", "signed zeros"]),
           st.integers(0, 2**32 - 1))
    @example(dim=4, fisher_const=4.0, dt=1e-3, offsets=[0, 0.0105, 0, 7, 0, 0.0, 3],
             ties="tied", seed=1)
    @example(dim=8, fisher_const=4.0, dt=1e-2, offsets=[5, 5, 0.0, 12, 0.333],
             ties="tied", seed=2)
    @example(dim=5, fisher_const=1.0, dt=4e-3, offsets=[0.017, 0, 0, 2, 0.0401],
             ties="signed zeros", seed=3)
    @example(dim=2, fisher_const=1.0, dt=0.015625, offsets=[], ties="tied", seed=0)
    def test_ends_equal_integrator_calls(self, dim, fisher_const, dt, offsets, ties, seed):
        """Bit for bit, errors included: the propagated state at each end,
        all ends scheduled and checked in one call, is the last state of
        integrate_geodesic(init, F, end, dt).  An integer offset is that many
        whole steps of dt from the start, so 0 is a zero span, a positive one
        lands on the grid and -1 ends before the start; a float offset mostly
        ends in a partial step."""
        x, v, phi0 = tied_state(dim, ties, seed)
        init = GeodesicState(x, v, phi0)
        ends = [phi0 + (offset * dt if isinstance(offset, int) else offset)
                for offset in offsets]
        lasts, errors = [], []
        for end in ends:
            try:
                lasts.append(integrate_geodesic(init, fisher_const, end, dt)[-1])
            except ValueError as exc:
                errors.append(str(exc))
        if errors:
            with pytest.raises(ValueError, match=re.escape(errors[0])):
                _rk4_schedule(init, fisher_const, ends, dt)
            return
        x, v, n, h = _rk4_schedule(init, fisher_const, ends, dt)
        xs, vs = _rk4_propagate(x, v, fisher_const, dt, n, h)
        assert xs.shape == vs.shape == (len(ends), dim)
        assert xs.tobytes() == b"".join(last.x.tobytes() for last in lasts)
        assert vs.tobytes() == b"".join(last.xdot.tobytes() for last in lasts)

    def test_trajectory_contract(self):
        init = self.grover_initial(6)
        traj = integrate_geodesic(init, 4.0, init.phi + 0.105, 1e-2)  # partial last step
        n = len(traj)
        assert n == 12
        assert isinstance(traj, GeodesicTrajectory) and isinstance(traj, Sequence)
        assert traj.phis.shape == (n,)
        assert traj.x.shape == traj.xdot.shape == (n, 6)
        for array in (traj.phis, traj.x, traj.xdot, traj[3].x, traj[3].xdot):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        first, last = traj[0], traj[-1]
        assert first.phi == init.phi
        assert first.x.tobytes() == init.x.tobytes()
        assert first.xdot.tobytes() == init.xdot.tobytes()
        assert last.phi == init.phi + 0.105
        assert last.x.tobytes() == traj[n - 1].x.tobytes() == traj.x[-1].tobytes()
        with pytest.raises(IndexError):
            traj[n]
        with pytest.raises(TypeError):
            traj[0, 1]
        assert traj[True].phi == traj[1].phi
        states = list(traj)
        assert len(states) == n
        for i, state in enumerate(states):
            indexed = traj[i - n]
            assert isinstance(state, GeodesicState)
            assert type(state.phi) is float and type(indexed.phi) is float
            assert state.phi == indexed.phi == traj.phis[i]
            assert state.x.tobytes() == indexed.x.tobytes() == traj.x[i].tobytes()
            assert state.xdot.tobytes() == indexed.xdot.tobytes() == traj.xdot[i].tobytes()
        for index in (slice(None, None, 3), slice(-4, None), slice(2, 9, 2)):
            part = traj[index]
            assert isinstance(part, GeodesicTrajectory)
            assert len(part) == len(range(n)[index])
            assert part.phis.tobytes() == traj.phis[index].tobytes()
            assert part.x.tobytes() == traj.x[index].tobytes()
            assert part.xdot.tobytes() == traj.xdot[index].tobytes()
            assert [s.phi for s in part] == traj.phis[index].tolist()

    def test_zero_span_is_the_initial_state(self):
        init = self.grover_initial(4)
        traj = integrate_geodesic(init, 4.0, init.phi, 1e-3)
        assert len(traj) == 1
        assert traj.x.shape == traj.xdot.shape == (1, 4)
        assert traj[-1].x.tobytes() == init.x.tobytes()

    def test_input_validation(self):
        good = self.grover_initial(4)
        with pytest.raises(ValueError):
            integrate_geodesic(good, 4.0, np.pi / 2, 0.0)
        with pytest.raises(ValueError):
            integrate_geodesic(good, 4.0, np.pi / 2, -1e-3)
        with pytest.raises(ValueError):
            integrate_geodesic(good, -4.0, np.pi / 2, 1e-3)
        with pytest.raises(ValueError):
            integrate_geodesic(
                GeodesicState(np.array([np.nan, 1.0]), np.zeros(2), 0.0),
                4.0, 1.0, 1e-3)
        with pytest.raises(ValueError):
            integrate_geodesic(
                GeodesicState(np.array([1.0, 1.0]), np.zeros(2), 0.0),
                4.0, 1.0, 1e-3)
        with pytest.raises(ValueError):
            integrate_geodesic(
                GeodesicState(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.0),
                4.0, 1.0, 1e-3)
        with pytest.raises(ValueError, match="vectors of one length"):
            integrate_geodesic(
                GeodesicState(np.array([1.0, 0.0]), np.zeros(1), 0.0), 4.0, 1.0, 1e-3)


class TestInputInformation:
    def test_grover_path(self):
        path = grover_fine_path(16, dphi=0.005)
        for phi0 in (0.5, 0.9, 1.3):
            assert abs(input_information(path, phi0) - 4.0) < 1e-3

    def test_constant_path(self):
        assert input_information(constant_path([0.25] * 4), 0.5) == pytest.approx(0.0)

    def test_two_outcome_at_0_7(self):
        phis = np.linspace(0.2, 1.2, 101)
        assert abs(input_information(two_outcome_path(phis), 0.7) - 4.0) < 1e-3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            input_information(constant_path([1.0]), 2.0)
