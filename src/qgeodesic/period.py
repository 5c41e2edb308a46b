"""Quantum period finding and factorization, by projection or by search.

Two period finders share the same number-theoretic post-processing:

* ``shor_period`` measures the second register of the two-register state
  sum_a |a>|y^a mod N>, Fourier-transforms the first register, and
  extracts the period from the measured frequency by continued fractions.
  It holds only the one q-long column the projection leaves nonzero;
  ``build_register`` and ``shor_project`` keep the dense pair state as the
  reference.

* ``grover_period`` amplifies the arguments a with y^a = y (mod N) by
  running amplitude amplification over the first register, samples the
  amplified state a few times, and takes gcds of the sample differences.
  Every primitive in this route is unitary except the final readout.

Both return verified minimal periods along with operation counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .geometry import fisher_discrete
from .grover import (
    GroverInstance,
    amplification_path,
    amplification_samples,
    optimal_iterations,
    recursion_trajectory,
)
from .states import StateVector, measure_register, qft, require_amplitudes

DEFAULT_MEMORY_CAP = 1 << 26  # complex amplitudes

SHOR = "shor"
GROVER_ADIABATIC = "grover-adiabatic"


def order_bruteforce(y: int, n: int) -> int:
    """Smallest r >= 1 with y**r = 1 (mod n), by direct iteration."""
    if math.gcd(y, n) != 1:
        raise ValueError(f"gcd({y}, {n}) != 1: multiplicative order undefined")
    if n > 10**6:
        raise ValueError("brute-force order limited to n <= 10**6")
    value = y % n
    r = 1
    while value != 1:
        value = value * y % n
        r += 1
    return r


def default_register_size(modulus: int) -> int:
    """Smallest power of two strictly inside (N^2, 2 N^2)."""
    n_sq = modulus * modulus
    q = 1 << n_sq.bit_length()
    if not n_sq < q < 2 * n_sq:
        raise ValueError(f"no power of two in ({n_sq}, {2 * n_sq})")
    return q


@dataclass(frozen=True)
class PeriodInstance:
    """Order-finding problem: base y modulo N with a q-dimensional argument
    register, N^2 < q < 2 N^2 and q a power of two."""

    modulus: int
    base: int
    register_size: int = 0

    def __post_init__(self):
        n, y = self.modulus, self.base
        if n < 3:
            raise ValueError(f"modulus must be >= 3, got {n}")
        if not 1 < y < n:
            raise ValueError(f"base must satisfy 1 < y < {n}, got {y}")
        if math.gcd(y, n) != 1:
            raise ValueError(f"base and modulus must be coprime: gcd({y}, {n}) > 1")
        q = self.register_size or default_register_size(n)
        if q & (q - 1) != 0:
            raise ValueError(f"register size must be a power of two, got {q}")
        if not n * n < q < 2 * n * n:
            raise ValueError(
                f"register size {q} outside ({n * n}, {2 * n * n})")
        object.__setattr__(self, "register_size", q)


@dataclass(frozen=True)
class PeriodResult:
    """Outcome of one period-finding run with its operation counters."""

    method: str
    period: int | None
    oracle_calls: int
    measurements: int
    attempts: int
    succeeded: bool


def _modexp_table(inst: PeriodInstance) -> np.ndarray:
    """f(a) = y^a mod N for a in [0, q), by doubling: entries [s, 2s) are
    entries [0, s) times y^s.  Products stay below N^2 < q, within int64."""
    q, n = inst.register_size, inst.modulus
    table = np.empty(q, dtype=np.int64)
    table[0] = 1
    size = 1
    while size < q:
        table[size:2 * size] = table[:size] * pow(inst.base, size, n) % n
        size *= 2
    return table


def build_register(inst: PeriodInstance, memory_cap: int = DEFAULT_MEMORY_CAP) -> StateVector:
    """The pair state q^{-1/2} sum_a |a>|y^a mod N>, dim q x N.

    Raises :class:`ResourceLimitError` if q*N complex amplitudes exceed
    ``memory_cap``.
    """
    q, n = inst.register_size, inst.modulus
    require_amplitudes(q * n, memory_cap, "register")
    table = _modexp_table(inst)
    amps = np.zeros(q * n, dtype=np.complex128)
    amps[np.arange(q, dtype=np.int64) * n + table] = 1.0 / np.sqrt(q)
    return StateVector(amps, (q, n))


def shor_project(state: StateVector, rng: np.random.Generator) -> tuple[int, StateVector]:
    """Measure the function register; the argument register collapses onto
    an arithmetic progression of stride equal to the period."""
    return measure_register(state, 1, rng)


def continued_fraction_denominator(c: int, q: int, bound: int) -> int | None:
    """Largest convergent denominator of c/q not exceeding ``bound``.

    Returns None for c = 0 (the zero frequency carries no period
    information).
    """
    if not 0 <= c < q:
        raise ValueError(f"need 0 <= c < q, got c={c}, q={q}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if c == 0:
        return None
    best = None
    k_prev2, k_prev = 1, 0  # denominators k_{-2}, k_{-1}
    num, den = c, q
    while den:
        a = num // den
        num, den = den, num - a * den
        k = a * k_prev + k_prev2
        k_prev2, k_prev = k_prev, k
        if k <= bound:
            best = k
        else:
            break
    return best


def marked_arguments(inst: PeriodInstance) -> np.ndarray:
    """All a in [0, q) with y^a = y (mod N); the support of the amplified state."""
    table = _modexp_table(inst)
    return np.nonzero(table == table[1])[0]


def _prime_factors(n: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def _verified_minimal_period(y: int, n: int, candidate: int) -> int | None:
    """Accept a candidate exponent only if y^candidate = 1, then strip prime
    factors while the identity survives, leaving the minimal period."""
    if candidate is None or candidate < 1:
        return None
    if pow(y, candidate, n) != 1:
        return None
    g = candidate
    reduced = True
    while reduced:
        reduced = False
        for p in _prime_factors(g):
            if pow(y, g // p, n) == 1:
                g //= p
                reduced = True
                break
    return g


def _sample_column(
    inst: PeriodInstance, table: np.ndarray, rng: np.random.Generator
) -> tuple[int, int]:
    """Measure the function register, then Fourier-sample the argument
    register, on the one column of the pair state that the projection
    leaves nonzero (Shor, quant-ph/9508027, section 5).

    Makes the same draws from ``rng`` as ``build_register`` ->
    ``shor_project`` -> ``qft`` -> ``measure_register``, with
    probabilities equal up to rounding, from q amplitudes instead of q*N.
    """
    q, n = inst.register_size, inst.modulus
    marginal = np.bincount(table, minlength=n) / q
    marginal = marginal / marginal.sum()
    l = int(rng.choice(n, p=marginal))
    column = table == l
    amps = np.zeros(q, dtype=np.complex128)
    amps[column] = 1.0 / np.sqrt(np.count_nonzero(column))
    c, _ = measure_register(qft(StateVector(amps)), 0, rng)
    return l, c


def shor_sample(
    inst: PeriodInstance, rng: np.random.Generator, memory_cap: int = DEFAULT_MEMORY_CAP
) -> tuple[int, int]:
    """One projection + transform attempt: returns (function value l,
    measured frequency c).

    Raises :class:`ResourceLimitError` if the q amplitudes of the argument
    register exceed ``memory_cap``.
    """
    require_amplitudes(inst.register_size, memory_cap, "register")
    return _sample_column(inst, _modexp_table(inst), rng)


def shor_period(
    inst: PeriodInstance,
    rng: np.random.Generator,
    max_attempts: int = 32,
    memory_cap: int = DEFAULT_MEMORY_CAP,
) -> PeriodResult:
    """Find the period by measurement projection and Fourier sampling.

    Each attempt consumes one register preparation and two projective
    measurements.  Frequencies failing the continued-fraction check are
    retried, with lcm combination of previously seen denominators before an
    attempt is declared failed.
    """
    y, n, q = inst.base, inst.modulus, inst.register_size
    require_amplitudes(q, memory_cap, "register")
    table = _modexp_table(inst)
    oracle_calls = measurements = 0
    seen_denominators: list[int] = []
    for attempt in range(1, max_attempts + 1):
        _, c = _sample_column(inst, table, rng)
        oracle_calls += 1
        measurements += 2
        d = continued_fraction_denominator(c, q, n)
        if d is None:
            continue
        period = _verified_minimal_period(y, n, d)
        if period is None:
            for prev in seen_denominators:
                period = _verified_minimal_period(y, n, math.lcm(d, prev))
                if period is not None:
                    break
            seen_denominators.append(d)
        if period is not None:
            return PeriodResult(SHOR, period, oracle_calls, measurements, attempt, True)
    return PeriodResult(SHOR, None, oracle_calls, measurements, max_attempts, False)


def _search_instance(inst: PeriodInstance) -> GroverInstance:
    """Search over the argument register for {a : y^a = y (mod N)}."""
    return GroverInstance(inst.register_size,
                          frozenset(int(a) for a in marked_arguments(inst)))


def _amplified_state(inst: PeriodInstance, memory_cap: int) -> tuple[StateVector, int, int]:
    """Run the search loop over the argument register on its two amplitudes
    and spread them over the register; returns the state just before
    readout, the iteration count, and the marked count."""
    require_amplitudes(inst.register_size, memory_cap, "register")
    search = _search_instance(inst)
    steps = optimal_iterations(search)
    k, l = recursion_trajectory(search, steps)[-1]
    return StateVector(np.where(search.marked_mask(), k, l)), steps, search.n_marked


def _period_from_samples(y: int, n: int, outcomes: list[int]) -> int | None:
    """gcd of pairwise sample differences, verified and minimized."""
    g = 0
    for i in range(len(outcomes)):
        for j in range(i + 1, len(outcomes)):
            g = math.gcd(g, abs(outcomes[i] - outcomes[j]))
    if g == 0:
        return None
    return _verified_minimal_period(y, n, g)


def grover_period(
    inst: PeriodInstance,
    rng: np.random.Generator,
    samples: int = 3,
    max_rounds: int = 20,
    memory_cap: int = DEFAULT_MEMORY_CAP,
) -> PeriodResult:
    """Find the period by amplitude amplification of {a : y^a = y (mod N)}.

    Per sample the loop is rebuilt from the uniform register and run for
    the optimal iteration count, then the register is read out once; the
    period is the verified gcd of pairwise differences of the samples.
    Rounds of fresh samples are drawn until verification succeeds or the
    resampling budget is exhausted.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    y, n = inst.base, inst.modulus
    state, steps, _ = _amplified_state(inst, memory_cap)
    oracle_calls = measurements = 0
    for round_index in range(1, max_rounds + 1):
        outcomes = []
        for _ in range(samples):
            outcome, _ = measure_register(state, 0, rng)
            outcomes.append(outcome)
            oracle_calls += steps  # one oracle application per loop iteration
            measurements += 1
        period = _period_from_samples(y, n, outcomes)
        if period is not None:
            return PeriodResult(
                GROVER_ADIABATIC, period, oracle_calls, measurements, round_index, True)
    return PeriodResult(
        GROVER_ADIABATIC, None, oracle_calls, measurements, max_rounds, False)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, exactly, by integer Newton iteration."""
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) exceeds the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_power_base(n: int) -> int | None:
    """The prime p with n = p^k (k >= 2), or None."""
    for k in range(n.bit_length(), 1, -1):
        root = _integer_root(n, k)
        if root**k == n:  # largest k first, so root is no perfect power
            return root if _is_prime(root) else None
    return None


def classify_modulus(n: int) -> str:
    """'ok' for an odd composite non-prime-power, else the violated class."""
    if n < 3:
        return "too-small"
    if n % 2 == 0:
        return "even"
    if _is_prime(n):
        return "prime"
    if _prime_power_base(n) is not None:
        return "prime-power"
    return "ok"


@dataclass(frozen=True)
class FactorResult:
    """Factorization outcome with per-attempt history and counters."""

    modulus: int
    method: str
    factors: tuple[int, int] | None
    succeeded: bool
    attempts: list[dict] = field(default_factory=list)
    oracle_calls: int = 0
    measurements: int = 0
    classical_route: str | None = None


def factor(
    n: int,
    method: str,
    rng: np.random.Generator,
    budget: int = 16,
    samples: int = 3,
    memory_cap: int = DEFAULT_MEMORY_CAP,
) -> FactorResult:
    """Split an odd composite non-prime-power N via period finding.

    Draws random bases y until one yields an even period r with
    y^{r/2} != -1 (mod N); then gcd(y^{r/2} +- 1, N) is a factor pair.
    Even moduli and prime powers are reported through the classical route
    with the trivial factor; primes are reported as unfactorable.
    """
    if method not in (SHOR, GROVER_ADIABATIC):
        raise ValueError(f"unknown method {method!r}")
    if n < 3:
        raise ValueError(f"modulus must be >= 3, got {n}")
    kind = classify_modulus(n)
    if kind == "even":
        return FactorResult(n, method, (2, n // 2), True, classical_route="even")
    if kind == "prime":
        return FactorResult(n, method, None, False, classical_route="prime")
    if kind == "prime-power":
        p = _prime_power_base(n)
        return FactorResult(n, method, (p, n // p), True, classical_route="prime-power")

    if n >= 1 << 63:
        raise ValueError(f"modulus of {n.bit_length()} bits is beyond the "
                         "simulator's signed 64-bit range (N < 2^63)")
    attempts: list[dict] = []
    oracle_calls = measurements = 0
    for _ in range(budget):
        y = int(rng.integers(2, n))
        g = math.gcd(y, n)
        if g > 1:
            attempts.append({"y": y, "period": None, "outcome": "shared-factor"})
            return FactorResult(n, method, (min(g, n // g), max(g, n // g)), True,
                                attempts, oracle_calls, measurements)
        inst = PeriodInstance(n, y)
        if method == SHOR:
            result = shor_period(inst, rng, memory_cap=memory_cap)
        else:
            result = grover_period(inst, rng, samples=samples, memory_cap=memory_cap)
        oracle_calls += result.oracle_calls
        measurements += result.measurements
        if not result.succeeded:
            attempts.append({"y": y, "period": None, "outcome": "period-not-found"})
            continue
        r = result.period
        if r % 2 != 0:
            attempts.append({"y": y, "period": r, "outcome": "odd-period"})
            continue
        half = pow(y, r // 2, n)
        if half == n - 1:
            attempts.append({"y": y, "period": r, "outcome": "trivial-root"})
            continue
        f1, f2 = math.gcd(half - 1, n), math.gcd(half + 1, n)
        attempts.append({"y": y, "period": r, "outcome": "factored"})
        return FactorResult(n, method, (min(f1, f2), max(f1, f2)), True,
                            attempts, oracle_calls, measurements)
    return FactorResult(n, method, None, False, attempts, oracle_calls, measurements)


@dataclass(frozen=True)
class MethodReport:
    """Per-method slice of a comparison run."""

    method: str
    succeeded: bool
    period: int | None
    oracle_calls: int
    measurements: int
    projective_measurements: int
    attempts: int

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "succeeded": self.succeeded,
            "period": self.period,
            "oracle_calls": self.oracle_calls,
            "measurements": self.measurements,
            "projective_measurements": self.projective_measurements,
            "attempts": self.attempts,
        }


@dataclass(frozen=True)
class ComparisonReport:
    """Both period finders on one instance, plus the Fisher trace of the
    amplification path demonstrating its constancy."""

    seed: int
    modulus: int
    base: int
    register_size: int
    methods: dict[str, MethodReport]
    fisher_phis: list[float]
    fisher_values: list[float]
    format_version: int = 1

    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "seed": self.seed,
            "instance": {
                "modulus": self.modulus,
                "base": self.base,
                "register_size": self.register_size,
            },
            "methods": {name: rep.to_dict() for name, rep in self.methods.items()},
            "fisher_trace": {
                "phi": list(self.fisher_phis),
                "fisher": list(self.fisher_values),
            },
        }


def _fisher_trace(
    inst: PeriodInstance, dphi: float, memory_cap: int
) -> tuple[list[float], list[float]]:
    """Fisher values along the amplification path, from the uniform state at
    phi = theta to the amplified state at pi/2, resampled at step dphi."""
    search = _search_instance(inst)
    require_amplitudes(amplification_samples(search, dphi) * 2, memory_cap,
                       "resampled path")
    trace = fisher_discrete(amplification_path(search, dphi))
    return trace.phi.tolist(), trace.fisher.tolist()


def compare_methods(
    inst: PeriodInstance,
    seed: int,
    samples: int = 3,
    shor_attempts: int = 32,
    grover_rounds: int = 20,
    trace_dphi: float = 0.01,
    memory_cap: int = DEFAULT_MEMORY_CAP,
) -> ComparisonReport:
    """Run both period finders on ``inst`` with child streams derived from a
    shared seed, and report their counters side by side.

    Every Shor measurement is a projective state reduction; the
    amplification route only measures when sampling the amplified state.
    """
    children = np.random.SeedSequence(seed).spawn(2)
    shor_res = shor_period(
        inst, np.random.default_rng(children[0]),
        max_attempts=shor_attempts, memory_cap=memory_cap)
    grover_res = grover_period(
        inst, np.random.default_rng(children[1]),
        samples=samples, max_rounds=grover_rounds, memory_cap=memory_cap)
    phis, values = _fisher_trace(inst, trace_dphi, memory_cap)
    methods = {
        SHOR: MethodReport(
            SHOR, shor_res.succeeded, shor_res.period, shor_res.oracle_calls,
            shor_res.measurements, shor_res.measurements, shor_res.attempts),
        GROVER_ADIABATIC: MethodReport(
            GROVER_ADIABATIC, grover_res.succeeded, grover_res.period,
            grover_res.oracle_calls, grover_res.measurements,
            grover_res.measurements, grover_res.attempts),
    }
    return ComparisonReport(
        seed=seed,
        modulus=inst.modulus,
        base=inst.base,
        register_size=inst.register_size,
        methods=methods,
        fisher_phis=phis,
        fisher_values=values,
    )

