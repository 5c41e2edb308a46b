"""Grover amplitude amplification three ways.

The state stays uniform within the marked and the unmarked class, so a
two-amplitude recursion and a two-class closed-form path carry all the search
data; the per-item closed form and the full statevector simulation are kept
as the dense reference.  The discrete step index j embeds into the
continuous parameter as phi_j = (2j + 1) * theta, which places the uniform
starting state at phi = theta and the solution at phi = pi/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .paths import ProbabilityPath
from .states import StateVector, invert_about_average, new_uniform, phase_flip


@dataclass(frozen=True)
class GroverInstance:
    """Search over n_items basis states with a non-empty marked subset."""

    n_items: int
    marked: frozenset[int]
    theta: float = field(init=False)

    def __post_init__(self):
        marked = frozenset(int(i) for i in self.marked)
        object.__setattr__(self, "marked", marked)
        n, m = self.n_items, len(marked)
        if n < 2:
            raise ValueError(f"need at least 2 items, got {n}")
        if m == 0:
            raise ValueError("marked set must be non-empty")
        if m >= n:
            raise ValueError(f"marked set must be a proper subset ({m} >= {n})")
        if min(marked) < 0 or max(marked) >= n:
            raise ValueError(f"marked index out of range [0, {n})")
        object.__setattr__(self, "theta", float(np.arcsin(np.sqrt(m / n))))

    @property
    def n_marked(self) -> int:
        return len(self.marked)

    @property
    def class_sizes(self) -> np.ndarray:
        """Item counts (M, N - M) of the marked and unmarked classes."""
        return np.array([self.n_marked, self.n_items - self.n_marked])

    def marked_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_items, dtype=bool)
        mask[sorted(self.marked)] = True
        return mask


@dataclass(frozen=True)
class RecursionState:
    """Shared amplitude k on the marked item and l on each unmarked item."""

    k: float
    l: float
    step: int = 0


def recursion_step(s: RecursionState, n_items: int, n_marked: int = 1) -> RecursionState:
    """One Grover iteration of the two-amplitude recursion over M marked items.

    k' = (N-2M)/N k + 2(N-M)/N l,  l' = -2M/N k + (N-2M)/N l.
    """
    n, m = n_items, n_marked
    k = (n - 2 * m) / n * s.k + 2 * (n - m) / n * s.l
    l = -2 * m / n * s.k + (n - 2 * m) / n * s.l
    return RecursionState(k, l, s.step + 1)


def recursion_trajectory(inst: GroverInstance, steps: int) -> np.ndarray:
    """Per-item amplitudes (k_j, l_j) of the marked and unmarked items for
    j = 0..steps, from the uniform state; shape (steps + 1, 2)."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    states = [RecursionState(1.0 / np.sqrt(inst.n_items), 1.0 / np.sqrt(inst.n_items))]
    for _ in range(steps):
        states.append(recursion_step(states[-1], inst.n_items, inst.n_marked))
    return np.array([(s.k, s.l) for s in states])


def analytic_path(inst: GroverInstance, phi: float) -> np.ndarray:
    """Distribution at parameter phi: total marked mass sin^2(phi), uniform
    within the marked and unmarked classes.  Valid for phi in [0, pi/2]."""
    if not 0.0 <= phi <= np.pi / 2:
        raise ValueError(f"phi must lie in [0, pi/2], got {phi}")
    return analytic_trajectory(inst, np.array([phi])).probs[0]


def analytic_trajectory(inst: GroverInstance, phis: np.ndarray) -> ProbabilityPath:
    """Sample the closed-form path at the given parameter values.

    Unlike :func:`analytic_path` this is not restricted to [0, pi/2]: the
    closed form continues smoothly past the solution point, with signed real
    amplitudes recorded so derivative estimates stay clean across zero
    crossings of the amplitudes.
    """
    n, m = inst.n_items, inst.n_marked
    column = np.asarray(phis, dtype=np.float64)[:, np.newaxis]
    amps = np.where(inst.marked_mask(), np.sin(column) / np.sqrt(m),
                    np.cos(column) / np.sqrt(n - m))
    return ProbabilityPath(column[:, 0], amps**2, amps)


def class_path(phis: np.ndarray) -> ProbabilityPath:
    """The closed-form path on its two classes: amplitudes (sin phi, cos phi)
    of the marked and unmarked class states.  An item's amplitude is its
    class amplitude divided by sqrt(class size)."""
    phis = np.asarray(phis, dtype=np.float64)
    amps = np.stack([np.sin(phis), np.cos(phis)], axis=1)
    return ProbabilityPath(phis, amps**2, amps)


def amplification_samples(inst: GroverInstance, dphi: float) -> int:
    """Row count of :func:`amplification_path`: step <= dphi, at least 5."""
    return max(5, int(np.ceil((np.pi / 2 - inst.theta) / dphi)) + 1)


def amplification_path(inst: GroverInstance, dphi: float) -> ProbabilityPath:
    """The class path from the uniform state at phi = theta to the solution
    at pi/2, resampled at step <= dphi (at least 5 samples)."""
    return class_path(
        np.linspace(inst.theta, np.pi / 2, amplification_samples(inst, dphi)))


def phi_of_step(inst: GroverInstance, step: int) -> float:
    """Continuous parameter value of discrete step j: (2j + 1) * theta."""
    return (2 * step + 1) * inst.theta


def optimal_iterations(inst: GroverInstance) -> int:
    """floor(pi / (4 theta)), the step count that lands nearest phi = pi/2."""
    return int(np.floor(np.pi / (4 * inst.theta)))


def marked_mass_after(inst: GroverInstance, steps: int) -> float:
    """Closed-form total marked probability sin^2((2j + 1) theta)."""
    return float(np.sin((2 * steps + 1) * inst.theta) ** 2)


def grover_step(state: StateVector, marked) -> StateVector:
    """One iteration: phase-flip the marked states, invert about average."""
    return invert_about_average(phase_flip(state, marked))


def run_grover(inst: GroverInstance, steps: int, record: bool = False) -> ProbabilityPath:
    """Simulate the statevector trajectory from the uniform state.

    Returns the per-step path (phi_j, probabilities) for j = 0..steps;
    ``record`` additionally retains the amplitudes of every step (memory
    steps x dim complex values).
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    mask = inst.marked_mask()
    state = new_uniform(inst.n_items)
    probs = np.empty((steps + 1, inst.n_items))
    amps = np.empty((steps + 1, inst.n_items), dtype=np.complex128) if record else None
    probs[0] = state.probabilities()
    if record:
        amps[0] = state.amplitudes
    for j in range(1, steps + 1):
        state = grover_step(state, mask)
        probs[j] = state.probabilities()
        if record:
            amps[j] = state.amplitudes
    phis = np.array([phi_of_step(inst, j) for j in range(steps + 1)])
    return ProbabilityPath(phis, probs, amps)
