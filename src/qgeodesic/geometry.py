"""Fisher information, Fubini-Study geometry, and geodesic verification.

All path functionals are estimated from sampled data with second-order
finite differences.  Derivatives are taken on amplitude coordinates
x_i = sqrt(p_i) rather than on the probabilities themselves: the Fisher
summand pdot_i^2 / p_i equals 4 xdot_i^2, which stays finite where p_i
vanishes.  When a path carries recorded real amplitudes the signed values
are used directly, so the estimate also stays clean across amplitude sign
changes (where sqrt(p) would have a kink).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .grover import GroverInstance, SearchSizes, _recursion_coefficients
from .paths import ProbabilityPath
from .states import StateVector

FISHER_GUARD = 1e-12


@dataclass(frozen=True)
class GeodesicState:
    """Amplitude coordinates x_i = sqrt(p_i) and their parameter velocity."""

    x: np.ndarray
    xdot: np.ndarray
    phi: float


@dataclass(frozen=True, eq=False)
class GeodesicTrajectory(Sequence):
    """The states of one :func:`integrate_geodesic` run, held as arrays.

    ``phis`` has shape (n,), ``x`` and ``xdot`` shape (n, dim), all three
    read-only.  As a sequence of :class:`GeodesicState` it builds each state
    on demand from one row of each array, with ``phi`` a Python float;
    slices are trajectories over views of the same arrays.
    """

    phis: np.ndarray
    x: np.ndarray
    xdot: np.ndarray

    def __len__(self) -> int:
        return self.phis.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return GeodesicTrajectory(self.phis[index], self.x[index], self.xdot[index])
        i = operator.index(index)  # as for a list: no bools-as-masks, tuples or arrays
        return GeodesicState(self.x[i], self.xdot[i], float(self.phis[i]))

    def __iter__(self):
        for x, xdot, phi in zip(self.x, self.xdot, self.phis.tolist()):
            yield GeodesicState(x, xdot, phi)


@dataclass(frozen=True)
class UnitarityReport:
    """Per-sample comparison of the state speed against the Fisher rate.

    ``speed_sq`` is the global-phase-invariant squared speed
    <psidot|psidot> - |<psi|psidot>|^2; for a constant-phase path it must
    equal fisher / 4, and for a norm-preserving parametrization both equal 1.
    ``residual`` is |speed_sq - fisher/4|; for paths with varying amplitude
    phases it equals the phase-variance term instead of vanishing.
    """

    phis: np.ndarray
    speed_sq: np.ndarray
    fisher: np.ndarray
    residual: np.ndarray
    unit_residual: np.ndarray
    phase_variance: np.ndarray


def _phases_vary(amps) -> bool:
    """Whether recorded amplitudes carry phases beyond a sign."""
    return (amps is not None and np.iscomplexobj(amps)
            and bool(np.max(np.abs(amps.imag)) > 1e-12))


def _derivatives(path: ProbabilityPath) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real derivative coordinates x, their velocity xdot and the Fisher
    function 4 sum xdot^2."""
    amps = path.amps
    if amps is None:
        coords = np.sqrt(path.probs)
    elif _phases_vary(amps):
        coords = np.abs(amps)
    else:
        coords = np.ascontiguousarray(amps.real, dtype=np.float64)
    xdot = np.gradient(coords, path.phis, axis=0, edge_order=2)
    return coords, xdot, 4.0 * np.sum(xdot**2, axis=1)


def _phase_variance(path: ProbabilityPath) -> np.ndarray:
    """Probability-weighted variance of the amplitude phases' rates at each
    sample; zero where the phases do not vary."""
    if not _phases_vary(path.amps):
        return np.zeros(path.n_samples)
    angles = np.unwrap(np.angle(np.asarray(path.amps)), axis=0)
    angdot = np.gradient(angles, path.phis, axis=0, edge_order=2)
    mean = np.sum(path.probs * angdot, axis=1)
    return np.maximum(np.sum(path.probs * angdot**2, axis=1) - mean**2, 0.0)


def _require_samples(path: ProbabilityPath, minimum: int):
    path.require_increasing()
    if path.n_samples < minimum:
        raise ValueError(
            f"need at least {minimum} samples, got {path.n_samples}")


def fisher_estimate(path: ProbabilityPath) -> np.ndarray:
    """The Fisher information function at every sample of a path of at
    least 3 samples, as one array: the ``fisher`` field of
    :func:`fisher_discrete`, without its record array."""
    _require_samples(path, 3)
    return _derivatives(path)[2]


def fisher_discrete(path: ProbabilityPath) -> np.recarray:
    """Estimate the Fisher information function along a sampled path.

    Returns a record array with one record per sample and the fields
    ``phi``, ``fisher``, ``phase_variance`` and ``induced_speed_sq``, the
    squared Fubini-Study speed per unit parameter (fisher + 4 phase_variance)
    / 4.  Interior samples use central differences, the two endpoints
    one-sided second-order stencils.  The phase-variance term is extracted
    from recorded complex amplitudes (zero for constant-phase paths).
    """
    fisher = fisher_estimate(path)
    phase_var = _phase_variance(path)
    return np.rec.fromarrays(
        [path.phis, fisher, phase_var, (fisher + 4.0 * phase_var) / 4.0],
        names=("phi", "fisher", "phase_variance", "induced_speed_sq"))


def unitarity_identity_check(path: ProbabilityPath) -> UnitarityReport:
    """Check that the state speed matches the Fisher rate along the path.

    Requires recorded amplitudes.  ``unit_residual`` additionally reports
    |fisher/4 - 1|, the distance from a unit-speed (norm-preserving unitary)
    parametrization.
    """
    _require_samples(path, 3)
    if path.amps is None:
        raise ValueError("path must carry recorded amplitudes")
    amps = np.asarray(path.amps, dtype=np.complex128)
    cdot = np.gradient(amps, path.phis, axis=0, edge_order=2)
    raw_rate = np.sum(np.abs(cdot) ** 2, axis=1)
    overlap = np.sum(np.conjugate(amps) * cdot, axis=1)
    speed_sq = raw_rate - np.abs(overlap) ** 2
    fisher, phase_var = _derivatives(path)[2], _phase_variance(path)
    return UnitarityReport(
        phis=path.phis.copy(),
        speed_sq=speed_sq,
        fisher=fisher,
        residual=np.abs(speed_sq - fisher / 4.0),
        unit_residual=np.abs(fisher / 4.0 - 1.0),
        phase_variance=phase_var,
    )


def fubini_study_distance(a: StateVector, b: StateVector) -> float:
    """Angle arccos|<a|b>| between two states, in [0, pi/2]."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    overlap = abs(np.vdot(a.amplitudes, b.amplitudes))
    return float(np.arccos(np.clip(overlap, 0.0, 1.0)))


def cumulative_action(phis: np.ndarray, fisher: np.ndarray) -> np.ndarray:
    """Trapezoidal integral of sqrt(fisher)/2 from phis[0] to each sample;
    negative Fisher estimates count as zero."""
    integrand = 0.5 * np.sqrt(np.maximum(fisher, 0.0))
    return np.concatenate(([0.0], np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(phis))))


def action(path: ProbabilityPath, phi_from: float, phi_to: float) -> float:
    """Path-length action, the trapezoidal integral of sqrt(fisher)/2.

    The difference of :func:`cumulative_action` at the two bounds, each
    linearly interpolated between samples: a bound inside a cell takes that
    cell's share at the cell's trapezoid slope (its mean integrand).
    """
    _require_samples(path, 3)
    phis = path.phis
    if phi_to < phi_from:
        raise ValueError("phi_to must be >= phi_from")
    if phi_from < phis[0] - 1e-12 or phi_to > phis[-1] + 1e-12:
        raise ValueError("integration interval must lie within the path range")
    if phi_to == phi_from:
        return 0.0
    cumulative = cumulative_action(phis, _derivatives(path)[2])
    return float(np.interp(phi_to, phis, cumulative)
                 - np.interp(phi_from, phis, cumulative))


def _second_derivative(coords: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Three-point second derivative at samples 1..n-2 (rows of the result)."""
    h1 = (phis[1:-1] - phis[:-2])[:, np.newaxis]
    h2 = (phis[2:] - phis[1:-1])[:, np.newaxis]
    return 2.0 * (
        h2 * coords[:-2] - (h1 + h2) * coords[1:-1] + h1 * coords[2:]
    ) / (h1 * h2 * (h1 + h2))


def _residuals(path: ProbabilityPath) -> np.ndarray:
    """Geodesic equation-of-motion residual rows at samples 2..n-3, where
    every stencil is central.

    Evaluates xddot_i - (fisherdot/fisher) xdot_i + (fisher/4) x_i per
    coordinate with finite-difference derivatives; raises if fisher falls
    below the division guard at any of those samples.
    """
    coords, xdot, fisher = _derivatives(path)
    inner = fisher[2:-2]
    low = np.flatnonzero(inner < FISHER_GUARD)
    if low.size:
        index = 2 + int(low[0])
        raise ValueError(
            f"fisher value {fisher[index]:g} at sample {index} below guard; "
            "the equation of motion is singular for stationary paths")
    fdot = np.gradient(fisher, path.phis, edge_order=2)[2:-2]
    xddot = _second_derivative(coords, path.phis)[1:-1]
    return xddot - (fdot / inner)[:, np.newaxis] * xdot[2:-2] \
        + (inner / 4.0)[:, np.newaxis] * coords[2:-2]


def geodesic_residual_profile(path: ProbabilityPath) -> tuple[np.ndarray, np.ndarray]:
    """Max-abs geodesic residual at every valid interior sample.

    Returns (phis[2:n-2], residuals), the samples of :func:`_residuals`.
    """
    _require_samples(path, 5)
    return path.phis[2:-2].copy(), np.max(np.abs(_residuals(path)), axis=1)


def class_step_angles(amps: np.ndarray, sizes) -> np.ndarray:
    """The angle from each row (k_j, l_j) of per-item class amplitudes to the
    next, atan2(|X_j x X_{j+1}|, X_j . X_{j+1}) on X_j = (sqrt(M) k_j,
    sqrt(N - M) l_j) for class ``sizes`` (M, N - M); the signed dot product
    keeps a turn past pi/2 unfolded."""
    x = amps * np.sqrt(sizes)
    cross = x[:-1, 0] * x[1:, 1] - x[:-1, 1] * x[1:, 0]
    # The dot products summed column by column: numpy's axis=1 sum over a
    # pair is about ten times slower, for the same bits.
    dot = x[:-1] * x[1:]
    return np.arctan2(np.abs(cross), dot[:, 0] + dot[:, 1])


def geodesic_columns(search: GroverInstance | SearchSizes,
                     amps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Fisher, residual and action columns of a run of ``search`` from
    its rows ``amps`` of (k_j, l_j), with one row more at each end: step -1,
    which is step 0 mirrored in the unmarked axis, and one recursion step
    past the last.  The class sizes are (M, N - M) of the search's
    ``n_marked`` and ``n_items``."""
    n, m = search.n_items, search.n_marked
    same, to_k, to_l = _recursion_coefficients(n, m)
    (k0, l0), (k, l) = amps[0], amps[-1]
    run = np.vstack(([-k0, l0], amps, [same * k + to_k * l, to_l * k + same * l]))
    turns = class_step_angles(run, (m, n - m))  # turns[j]: step j - 1 to j
    # phi advances 2 theta a step, so Fisher is 4 where each turn is 2 theta;
    # the Grover step solves x_{j+1} + x_{j-1} = 2 cos(2 theta) x_j.
    return ((turns[:-1] + turns[1:]) ** 2 / (4.0 * search.theta**2),
            np.maximum(*np.abs(run[2:] + run[:-2] - 2.0 * same * run[1:-1]).T),
            np.concatenate(([0.0], np.cumsum(turns[1:-1]))))


def integrate_geodesic(
    init: GeodesicState, fisher_const: float, phi_end: float, dt: float
) -> GeodesicTrajectory:
    """Integrate the constant-Fisher oscillator xddot = -(fisher/4) x.

    Classic fixed-step fourth-order Runge-Kutta: n_full steps of length dt,
    then one partial step that lands on phi_end when the span is not a whole
    number of steps.  Returns every state as a :class:`GeodesicTrajectory`:
    the initial one, the state after k = 1..n_full steps at phi + k dt, then
    the state at phi_end after the partial step.  Each row is reached from
    ``init`` in closed form by one call of :func:`_rk4_propagate`, nothing
    per step.  Exact solution for comparison: x(phi) = x0 cos(w dphi) +
    (xdot0 / w) sin(w dphi) with w = sqrt(F)/2.
    """
    x, v, (n_full,), (h,) = _rk4_schedule(init, fisher_const, [phi_end], dt)
    phi, k = float(init.phi), np.arange(1.0, n_full + 1.0)
    tail = 1 if h > 0 else 0  # the row after the partial step
    phis = np.concatenate(([phi], phi + k * dt, [float(phi_end)] * tail))
    steps = np.concatenate(([0.0], k, [n_full] * tail))
    partial_h = np.concatenate((np.zeros(k.size + 1), [h] * tail))
    xs, vs = _rk4_propagate(x, v, fisher_const, dt, steps, partial_h)
    for array in (phis, xs, vs):
        array.flags.writeable = False
    return GeodesicTrajectory(phis, xs, vs)


def _rk4_schedule(init: GeodesicState, fisher_const: float, ends, dt: float):
    """Check an integration from ``init`` to each of ``ends``, once, and
    return x and xdot as float arrays with each end's step schedule (n, h):
    n whole steps of dt, then a partial step h that lands on the end, or
    h = 0 when the end lies within 1e-12 max(1, span) of n steps.  Each end
    is scheduled from the start, exactly as ``integrate_geodesic(init,
    fisher_const, end, dt)`` schedules it, so :func:`_rk4_propagate` of the
    result holds that call's last state for every end.
    """
    if not math.isfinite(dt) or dt <= 0:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(fisher_const) or fisher_const <= 0:
        raise ValueError(f"fisher_const must be positive, got {fisher_const}")
    x = np.asarray(init.x, dtype=np.float64)
    v = np.asarray(init.xdot, dtype=np.float64)
    if x.ndim != 1 or x.shape != v.shape:
        raise ValueError(f"x and xdot must be vectors of one length, got shapes "
                         f"{x.shape} and {v.shape}")
    phi, ends = float(init.phi), np.asarray(ends, dtype=np.float64)
    if not (np.isfinite(x).all() and np.isfinite(v).all() and math.isfinite(phi)
            and np.isfinite(ends).all()):
        raise ValueError("non-finite input to geodesic integrator")
    if abs(float(np.dot(x, x)) - 1.0) > 1e-8:
        raise ValueError("initial amplitudes must satisfy sum x^2 = 1")
    if abs(float(np.dot(x, v))) > 1e-8:
        raise ValueError("initial velocity must be tangent: sum x*xdot = 0")
    if (ends < phi).any():
        raise ValueError("phi_end must be >= the initial phi")
    span = ends - phi
    n_full = np.floor(span / dt + 1e-9)
    remainder = span - n_full * dt
    partial = remainder > 1e-12 * np.maximum(1.0, span)
    return x, v, n_full, np.where(partial, remainder, 0.0)


def _rk4_propagate(x: np.ndarray, v: np.ndarray, fisher_const: float, dt: float,
                   n: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The RK4 states (x, xdot) after n[j] steps of dt and then one step of
    h[j] from (x, v), one row per j; h = 0 takes no partial step, and
    n = h = 0 gives (x, v) itself, signed zeros included.

    For this linear system one RK4 step of length h is the degree-4 Taylor
    propagator: with w = sqrt(F)/2 and z = w^2 h^2 it multiplies w x + i xdot
    by lambda(h) = (1 - z/2 + z^2/24) - i w h (1 - z/6).  So n steps of dt
    and one of h turn each (x, xdot) pair by n arg lambda(dt) + arg lambda(h)
    and scale it by exp(n log|lambda(dt)| + log|lambda(h)|), a few float
    operations per row however many steps it stands for.  The angles and
    log moduli are summed and the sum applied in the increment form of a
    step, x' = x + (s v - a x), v' = v - (a v + w x).
    """
    omega_sq = fisher_const / 4.0
    omega = math.sqrt(omega_sq)

    def step_polar(h):
        """arg lambda(h) and log|lambda(h)|.  |lambda|^2 is exactly
        1 + z^3 (z - 8) / 576, so log1p takes the log without a rounded 1."""
        z = omega_sq * h * h
        return (np.arctan2(omega * h * (1.0 - z / 6.0), 1.0 - (z / 2.0 - z * z / 24.0)),
                0.5 * np.log1p(z * z * z * (z - 8.0) / 576.0))

    (turn_dt, log_scale_dt), (turn_h, log_scale_h) = step_polar(dt), step_polar(h)
    # With t = tan(turn / 2) and e = expm1(log_scale), sin(turn) is
    # 2t / (1 + t^2) and a = 1 - (1 + e) cos(turn) is (1 + e) 2t^2 / (1 + t^2)
    # - e, so no coefficient is rounded near 1.
    t = np.tan((n * turn_dt + turn_h) / 2.0)
    e = np.expm1(n * log_scale_dt + log_scale_h)
    sine = (1.0 + e) * 2.0 * t / (1.0 + t * t)
    s, a, w = (c[:, np.newaxis] for c in (sine / omega, sine * t - e, omega * sine))
    still = ((n == 0) & (h == 0))[:, np.newaxis]  # x + 0.0 would turn -0.0 into 0.0
    return (np.where(still, x, x + (s * v - a * x)),
            np.where(still, v, v - (a * v + w * x)))


def input_information(path: ProbabilityPath, phi0: float) -> float:
    """Fisher value at the start of computation, interpolated from samples."""
    _require_samples(path, 3)
    if phi0 < path.phis[0] - 1e-12 or phi0 > path.phis[-1] + 1e-12:
        raise ValueError("phi0 must lie within the path range")
    return float(np.interp(phi0, path.phis, _derivatives(path)[2]))
