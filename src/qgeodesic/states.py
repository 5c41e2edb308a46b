"""Dense statevector representation and the unitary/measurement primitives.

States are plain complex128 numpy arrays wrapped in :class:`StateVector`,
which tracks whether the amplitudes describe a single register or a pair of
registers (stored flat in C order, index = a * dim_b + b).  All operations
are pure: they take a state and return a new one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

MarkedSpec = Union[Iterable[int], np.ndarray]

DEFAULT_MEMORY_CAP = 1 << 26  # complex amplitudes


class ResourceLimitError(Exception):
    """Requested statevector exceeds the configured amplitude budget."""


def require_amplitudes(count: int, cap: int, what: str):
    """Raise :class:`ResourceLimitError` before allocating ``count`` complex
    amplitudes for ``what`` when that exceeds ``cap``."""
    if count > cap:
        raise ResourceLimitError(f"{what} needs {count} amplitudes, cap is {cap}")


def require_normalized(norm_sq: float):
    """Raise ValueError unless a state's sum |c|^2 is 1 within 1e-9."""
    if abs(norm_sq - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized: sum |c|^2 = {norm_sq!r}")


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state over one register or a register pair.

    ``amplitudes`` is a flat complex array of length ``dim``.  For a pair,
    ``shape == (dim_a, dim_b)`` and entry (a, b) sits at ``a * dim_b + b``.
    """

    amplitudes: np.ndarray
    shape: tuple[int, ...] = field(default=())

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).ravel()
        object.__setattr__(self, "amplitudes", amps)
        shape = self.shape or (amps.size,)
        if len(shape) not in (1, 2):
            raise ValueError(f"register shape must have 1 or 2 axes, got {shape}")
        if any(d < 1 for d in shape):
            raise ValueError(f"register dimensions must be >= 1, got {shape}")
        if math.prod(shape) != amps.size:
            raise ValueError(
                f"shape {shape} does not match {amps.size} amplitudes")
        object.__setattr__(self, "shape", tuple(int(d) for d in shape))
        # einsum on the real view, not vdot: a threaded BLAS vdot can pay
        # milliseconds of thread wake-up per call on a q-long state.
        f = amps.view(np.float64)
        require_normalized(float(np.einsum("i,i->", f, f)))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def is_pair(self) -> bool:
        return len(self.shape) == 2

    def as_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to (dim_a, dim_b); pair states only."""
        if not self.is_pair:
            raise ValueError("single-register state has no matrix view")
        return self.amplitudes.reshape(self.shape)

    def probabilities(self) -> np.ndarray:
        return probabilities(self)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))


def new_uniform(dim: int) -> StateVector:
    """Uniform superposition 1/sqrt(dim) over a single register."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    amps = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
    return StateVector(amps, (dim,))


def basis_state(dim: int, index: int, shape: tuple[int, ...] | None = None) -> StateVector:
    """Computational basis state |index> (flat index for pairs)."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if not 0 <= index < dim:
        raise ValueError(f"index {index} out of range [0, {dim})")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps, shape or (dim,))


def probabilities(state: StateVector) -> np.ndarray:
    """Born probabilities |c_i|^2, flat over all basis states."""
    return np.abs(state.amplitudes) ** 2


def _marked_mask(marked: MarkedSpec, dim: int) -> np.ndarray:
    arr = np.asarray(list(marked) if not isinstance(marked, np.ndarray) else marked)
    if arr.dtype == bool:
        if arr.size != dim:
            raise ValueError(f"boolean mask length {arr.size} != dim {dim}")
        return arr
    mask = np.zeros(dim, dtype=bool)
    if arr.size:
        idx = arr.astype(np.int64)
        if idx.min() < 0 or idx.max() >= dim:
            raise ValueError(f"marked index out of range [0, {dim})")
        mask[idx] = True
    return mask


def phase_flip(state: StateVector, marked: MarkedSpec) -> StateVector:
    """Negate the amplitude of every marked basis state (flat indices).

    ``marked`` may be an index collection or a boolean mask of length dim.
    """
    mask = _marked_mask(marked, state.dim)
    amps = state.amplitudes.copy()
    amps[mask] = -amps[mask]
    return StateVector(amps, state.shape)


def invert_about_average(state: StateVector) -> StateVector:
    """Reflect the amplitudes of a single register about their mean,
    c -> 2<c> - c."""
    if state.is_pair:
        raise ValueError("invert_about_average acts on a single register")
    return StateVector(2.0 * state.amplitudes.mean() - state.amplitudes, state.shape)


def qft(state: StateVector, register: int = 0, inverse: bool = False) -> StateVector:
    """Discrete Fourier transform of the selected register.

    Convention: c'_k = q^{-1/2} sum_a exp(+2*pi*i*a*k/q) c_a, which is
    numpy's ifft with orthonormal scaling; ``inverse=True`` applies the
    conjugate transform.
    """
    transform = np.fft.fft if inverse else np.fft.ifft
    if state.is_pair:
        if register not in (0, 1):
            raise ValueError(f"register must be 0 or 1, got {register}")
        mat = transform(state.as_matrix(), axis=register, norm="ortho")
        return StateVector(mat.ravel(), state.shape)
    if register != 0:
        raise ValueError("single-register state: register must be 0")
    return StateVector(transform(state.amplitudes, norm="ortho"), state.shape)


def measure_register(
    state: StateVector, register: int, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Projective measurement of one register in the computational basis.

    Samples an outcome from the marginal distribution of the selected
    register and returns ``(outcome, collapsed)`` where ``collapsed`` is the
    renormalized projection onto that outcome.  Deterministic for a given
    generator state.
    """
    if state.is_pair:
        if register not in (0, 1):
            raise ValueError(f"register must be 0 or 1, got {register}")
        mat = state.as_matrix()
        marginal = np.sum(np.abs(mat) ** 2, axis=1 - register)
    else:
        if register != 0:
            raise ValueError("single-register state: register must be 0")
        marginal = np.abs(state.amplitudes) ** 2

    marginal = marginal / marginal.sum()
    outcome = int(rng.choice(marginal.size, p=marginal))

    # Copy out only the kept row, column or entry.
    kept = (slice(None),) * register + (outcome,)
    amps = np.zeros(state.shape, dtype=np.complex128)
    amps[kept] = state.amplitudes.reshape(state.shape)[kept]
    amps = amps.ravel()

    norm = np.sqrt(np.sum(np.abs(amps) ** 2))
    if norm <= 0.0:
        raise AssertionError("projection onto a zero-probability outcome")
    return outcome, StateVector(amps / norm, state.shape)
