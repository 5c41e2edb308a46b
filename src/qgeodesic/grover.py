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
from typing import NamedTuple

import numpy as np

from .paths import ProbabilityPath
from .states import (
    DEFAULT_MEMORY_CAP,
    StateVector,
    invert_about_average,
    new_uniform,
    phase_flip,
    require_amplitudes,
)


@dataclass(frozen=True, eq=False)
class GroverInstance:
    """Search over n_items basis states with a non-empty marked subset.

    ``marked`` accepts any collection of indices (set, list, range, array)
    and holds them as one sorted, duplicate-free, read-only int64 array.
    """

    n_items: int
    marked: np.ndarray
    theta: float = field(init=False)

    def __post_init__(self):
        n = self.n_items
        if n < 2:
            raise ValueError(f"need at least 2 items, got {n}")
        given = self.marked if isinstance(self.marked, np.ndarray) else list(self.marked)
        try:
            marked = np.sort(np.asarray(given, dtype=np.int64))
        except OverflowError:  # beyond int64, so beyond any register
            raise ValueError(f"marked index out of range [0, {n})") from None
        if marked.size == 0:
            raise ValueError("marked set must be non-empty")
        marked = marked[np.concatenate(([True], marked[1:] != marked[:-1]))]
        m = marked.size
        if m >= n:
            raise ValueError(f"marked set must be a proper subset ({m} >= {n})")
        if marked[0] < 0 or marked[-1] >= n:
            raise ValueError(f"marked index out of range [0, {n})")
        marked.flags.writeable = False
        object.__setattr__(self, "marked", marked)
        object.__setattr__(self, "theta", search_angle(n, m))

    @property
    def n_marked(self) -> int:
        return self.marked.size

    @property
    def class_sizes(self) -> np.ndarray:
        """Item counts (M, N - M) of the marked and unmarked classes."""
        return np.array([self.n_marked, self.n_items - self.n_marked])

    def marked_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_items, dtype=bool)
        mask[self.marked] = True
        return mask


def search_angle(n_items: int, n_marked: int) -> float:
    """theta with sin^2 theta = M/N: the uniform state's angle from the
    unmarked class."""
    return float(np.arcsin(np.sqrt(n_marked / n_items)))


class SearchSizes(NamedTuple):
    """A search known by its sizes alone, N items of which M are marked.

    The class-level functions (``recursion_trajectory``,
    ``optimal_iterations``, ``phi_of_step``, ``marked_mass_after`` and
    ``amplification_path``) read only ``n_items``, ``n_marked`` and
    ``theta`` of a search, so they take this in place of a
    :class:`GroverInstance` where the marked set is known by its count.
    """

    n_items: int
    n_marked: int

    @property
    def theta(self) -> float:
        return search_angle(self.n_items, self.n_marked)


@dataclass(frozen=True)
class RecursionState:
    """Shared amplitude k on the marked item and l on each unmarked item."""

    k: float
    l: float
    step: int = 0


def _recursion_coefficients(n: int, m: int) -> tuple[float, float, float]:
    """The recursion's weights (N-2M)/N, 2(N-M)/N and -2M/N."""
    return (n - 2 * m) / n, 2 * (n - m) / n, -2 * m / n


def recursion_step(s: RecursionState, n_items: int, n_marked: int = 1) -> RecursionState:
    """One Grover iteration of the two-amplitude recursion over M marked items.

    k' = (N-2M)/N k + 2(N-M)/N l,  l' = -2M/N k + (N-2M)/N l.
    """
    same, to_k, to_l = _recursion_coefficients(n_items, n_marked)
    return RecursionState(same * s.k + to_k * s.l, to_l * s.k + same * s.l, s.step + 1)


def recursion_trajectory(
    inst: GroverInstance | SearchSizes, steps: int, memory_cap: int = DEFAULT_MEMORY_CAP
) -> np.ndarray:
    """Per-item amplitudes (k_j, l_j) of the marked and unmarked items for
    j = 0..steps, from the uniform state; shape (steps + 1, 2), its cells
    charged against ``memory_cap`` first."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    require_amplitudes((steps + 1) * 2, memory_cap, "trajectory")
    # recursion_step's arithmetic on floats, its coefficients computed once
    same, to_k, to_l = _recursion_coefficients(inst.n_items, inst.n_marked)
    amps = np.empty((steps + 1, 2))
    ks, ls = amps[:, 0], amps[:, 1]
    ks[0] = ls[0] = k = l = float(1.0 / np.sqrt(inst.n_items))
    for j in range(1, steps + 1):
        k, l = same * k + to_k * l, to_l * k + same * l
        ks[j] = k
        ls[j] = l
    return amps


def analytic_trajectory(inst: GroverInstance, phis: np.ndarray) -> ProbabilityPath:
    """Sample the closed-form path at the given parameter values.

    On [0, pi/2] the total marked mass is sin^2(phi), uniform within the
    marked and unmarked classes.  The closed form continues smoothly past
    the solution point, with signed real amplitudes recorded so derivative
    estimates stay clean across zero crossings of the amplitudes.
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


def amplification_path(
    inst: GroverInstance | SearchSizes, dphi: float, memory_cap: int = DEFAULT_MEMORY_CAP
) -> ProbabilityPath:
    """The class path from the uniform state at phi = theta to the solution
    at pi/2 on a uniform grid at step <= dphi, at least 5 samples; its rows
    * 2 cells are charged against ``memory_cap`` before the grid is built."""
    cells = np.ceil((np.pi / 2 - inst.theta) / dphi)
    rows = max(5, int(cells) + 1) if np.isfinite(cells) else np.inf
    require_amplitudes(rows * 2, memory_cap, "resampled path")
    return class_path(np.linspace(inst.theta, np.pi / 2, rows))


def phi_of_step(inst: GroverInstance | SearchSizes, step: int | np.ndarray) -> float | np.ndarray:
    """Continuous parameter value of discrete step j: (2j + 1) * theta, for
    one step or elementwise for an integer array of steps."""
    return (2 * step + 1) * inst.theta


def optimal_iterations(inst: GroverInstance | SearchSizes) -> int:
    """floor(pi / (4 theta)), the step count that lands nearest phi = pi/2."""
    return int(np.floor(np.pi / (4 * inst.theta)))


def marked_mass_after(inst: GroverInstance | SearchSizes, steps: int) -> float:
    """Closed-form total marked probability sin^2((2j + 1) theta)."""
    return float(np.sin(phi_of_step(inst, steps)) ** 2)


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
