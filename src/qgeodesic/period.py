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

import functools
import math
from dataclasses import dataclass, field
import numpy as np

from .geometry import fisher_discrete
from .grover import (
    GroverInstance,
    amplification_path,
    optimal_iterations,
    recursion_trajectory,
)
from .states import (
    DEFAULT_MEMORY_CAP,
    StateVector,
    measure_register,
    require_amplitudes,
    require_normalized,
)

FORMAT_VERSION = 1  # of every JSON document and the trace CSV

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
    register, q the power of two in (N^2, 2 N^2)."""

    modulus: int
    base: int
    register_size: int = field(init=False)

    def __post_init__(self):
        n, y = self.modulus, self.base
        if n < 3:
            raise ValueError(f"modulus must be >= 3, got {n}")
        if not 1 < y < n:
            raise ValueError(f"base must satisfy 1 < y < {n}, got {y}")
        if math.gcd(y, n) != 1:
            raise ValueError(f"base and modulus must be coprime: gcd({y}, {n}) > 1")
        object.__setattr__(self, "register_size", default_register_size(n))

    @functools.cached_property
    def orbit(self) -> np.ndarray:
        """y^j mod N for j in [0, r), r the order of y, read-only, built on
        first use.  f(a) = y^a mod N is orbit[a % r], so the commands read
        the marginal, the projected column and the marked set off these r
        values.  The walk takes r < N Python steps: under 8 192 for any
        modulus whose register fits the default cap."""
        n, y = self.modulus, self.base
        values = [1]
        value = y
        while value != 1:
            values.append(value)
            value = value * y % n
        orbit = np.array(values, dtype=np.int64)
        orbit.flags.writeable = False
        return orbit

    @functools.cached_property
    def table(self) -> np.ndarray:
        """f(a) = y^a mod N for a in [0, q), read-only, built on first use by
        doubling: entries [s, 2s) are entries [0, s) times y^s.  Products
        stay below N^2 < q, within int64.  Only ``build_register``, the dense
        reference, reads it."""
        q, n = self.register_size, self.modulus
        table = np.empty(q, dtype=np.int64)
        table[0] = 1
        size = 1
        while size < q:
            table[size:2 * size] = table[:size] * pow(self.base, size, n) % n
            size *= 2
        table.flags.writeable = False
        return table

    @functools.cached_property
    def search(self) -> GroverInstance:
        """Search over the argument register for {a : y^a = y (mod N)},
        built on first use from :func:`marked_arguments`."""
        return GroverInstance(self.register_size, marked_arguments(self))


@dataclass(frozen=True)
class PeriodResult:
    """Outcome of one period-finding run with its operation counters."""

    method: str
    period: int | None
    oracle_calls: int
    measurements: int
    attempts: int
    succeeded: bool


def build_register(inst: PeriodInstance, memory_cap: int = DEFAULT_MEMORY_CAP) -> StateVector:
    """The pair state q^{-1/2} sum_a |a>|y^a mod N>, dim q x N.

    Raises :class:`ResourceLimitError` if q*N complex amplitudes exceed
    ``memory_cap``.
    """
    q, n = inst.register_size, inst.modulus
    require_amplitudes(q * n, memory_cap, "register")
    amps = np.zeros(q * n, dtype=np.complex128)
    amps[np.arange(q, dtype=np.int64) * n + inst.table] = 1.0 / np.sqrt(q)
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
    """All a in [0, q) with y^a = y (mod N), the a = 1 (mod r); the support
    of the amplified state."""
    return np.arange(1, inst.register_size, inst.orbit.size, dtype=np.int64)


def _value_marginal(inst: PeriodInstance) -> np.ndarray:
    """The distribution of f(a) over the N function values for uniform a in
    [0, q), normalised: value y^j (j < r) is taken by the (q - 1 - j) // r + 1
    arguments a = j (mod r)."""
    q, orbit = inst.register_size, inst.orbit
    r = orbit.size
    marginal = np.zeros(inst.modulus)
    marginal[orbit] = (q - 1 - np.arange(r)) // r + 1
    marginal /= q
    return marginal / marginal.sum()


def _projected_column(inst: PeriodInstance, value: int) -> np.ndarray:
    """The argument register after the function register reads ``value`` =
    y^j: uniform on the progression a = j, j + r, ... below q."""
    orbit = inst.orbit
    j = orbit.tolist().index(value)
    amps = np.zeros(inst.register_size, dtype=np.complex128)
    support = amps[j::orbit.size]
    support[:] = 1.0 / np.sqrt(support.size)
    return amps


def _readout_cdf(p: np.ndarray) -> np.ndarray:
    """The cumulative distribution that ``Generator.choice(p.size, p=p)``
    draws from (numpy 2.4.6 builds ``p.cumsum()`` and divides it by its last
    entry), built in p's own memory.  p is non-negative and normalised where
    it is made, so choice's checks of it are not repeated."""
    np.cumsum(p, out=p)
    p /= p[-1]
    return p


def _draw(cdf: np.ndarray, rng: np.random.Generator, size: int | None = None):
    """``choice``'s readouts from the distribution with this CDF: one
    ``rng.random(size)`` call, each uniform placed by binary search.  The
    same indices and generator state as ``rng.choice(cdf.size, size, p=p)``."""
    return cdf.searchsorted(rng.random(size), side="right")


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
    """Accept a candidate exponent only if y^candidate = 1, then divide out
    each prime factor of the candidate while the identity survives, leaving
    the minimal period."""
    if candidate is None or candidate < 1:
        return None
    if pow(y, candidate, n) != 1:
        return None
    g = candidate
    for p in _prime_factors(candidate):
        while g % p == 0 and pow(y, g // p, n) == 1:
            g //= p
    return g


def shor_sample(
    inst: PeriodInstance, rng: np.random.Generator, memory_cap: int = DEFAULT_MEMORY_CAP
) -> tuple[int, int]:
    """One projection + transform attempt: returns (function value l,
    measured frequency c).

    Measures the function register, then Fourier-samples the argument
    register, on the one column of the pair state that the projection
    leaves nonzero (Shor, quant-ph/9508027, section 5).  Makes the same
    draws from ``rng`` as ``build_register`` -> ``shor_project`` -> ``qft``
    -> ``measure_register``, with probabilities equal up to rounding, from q
    amplitudes instead of q*N.

    Raises :class:`ResourceLimitError` if the q amplitudes of the argument
    register exceed ``memory_cap``.
    """
    require_amplitudes(inst.register_size, memory_cap, "register")
    l = int(_draw(_readout_cdf(_value_marginal(inst)), rng))
    amps = _projected_column(inst, l)
    # The readout distribution of measure_register, without its collapse:
    # qft's transform, taken in place, |c|^2 normalised in place, and its
    # CDF built in place.
    p = np.abs(np.fft.ifft(amps, norm="ortho", out=amps))
    np.square(p, out=p)
    total = p.sum()
    require_normalized(float(total))
    p /= total
    c = int(_draw(_readout_cdf(p), rng))
    return l, c


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
    oracle_calls = measurements = 0
    seen_denominators: list[int] = []
    for attempt in range(1, max_attempts + 1):
        _, c = shor_sample(inst, rng, memory_cap)
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


def _amplified_distribution(inst: PeriodInstance, memory_cap: int) -> tuple[np.ndarray, int]:
    """Run the search loop over the argument register on its two amplitudes;
    returns the readout distribution of the amplified register, k^2 on each
    marked and l^2 on each unmarked argument, normalised, and the iteration
    count."""
    q = inst.register_size
    require_amplitudes(q, memory_cap, "register")
    search = inst.search
    steps = optimal_iterations(search)
    k, l = recursion_trajectory(search, steps, memory_cap)[-1]
    m = search.n_marked
    require_normalized(float(m * k * k + (q - m) * l * l))
    p = np.full(q, l * l)
    p[search.marked] = k * k
    p /= p.sum()
    return p, steps


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
    p, steps = _amplified_distribution(inst, memory_cap)
    cdf = _readout_cdf(p)
    oracle_calls = measurements = 0
    for round_index in range(1, max_rounds + 1):
        # One draw of `samples` readouts makes the draws of one call per
        # readout.  The gcd of the differences to the first readout is the
        # gcd of all pairwise differences; it is 0 when every readout is the
        # same.
        first, *rest = _draw(cdf, rng, samples).tolist()
        g = math.gcd(*(outcome - first for outcome in rest))
        oracle_calls += samples * steps  # one oracle application per loop iteration
        measurements += samples
        period = _verified_minimal_period(y, n, g)
        if period is not None:
            return PeriodResult(
                GROVER_ADIABATIC, period, oracle_calls, measurements, round_index, True)
    return PeriodResult(
        GROVER_ADIABATIC, None, oracle_calls, measurements, max_rounds, False)


# Strong-probable-prime bases: together they admit no composite below
# 3.3 * 10^24 (Sorenson and Webster, 2015), past every modulus simulated.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on :data:`_WITNESSES`: exact for n < 3.3 * 10^24, and
    beyond that wrong only for a composite that all 13 bases pass."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
    """The prime p with n = p^e (e >= 2), or None.

    n = p^e exactly when n = r^k for some prime k dividing e, and then
    r = p^(e/k) is p or again a power of p.  So only prime exponents k are
    tried, and a root that is not prime is searched in turn.
    """
    for k in range(2, n.bit_length() + 1):
        if _is_prime(k):
            root = _integer_root(n, k)
            if root**k == n:
                return root if _is_prime(root) else _prime_power_base(root)
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
    with the trivial factor; primes are reported as unfactorable.  Raises
    ValueError for N >= 2^63, beyond the simulator's int64 registers,
    before N is classified.
    """
    if method not in (SHOR, GROVER_ADIABATIC):
        raise ValueError(f"unknown method {method!r}")
    if n < 3:
        raise ValueError(f"modulus must be >= 3, got {n}")
    if n >= 1 << 63:
        raise ValueError(f"modulus of {n.bit_length()} bits is beyond the "
                         "simulator's signed 64-bit range (N < 2^63)")
    kind = classify_modulus(n)
    if kind == "even":
        return FactorResult(n, method, (2, n // 2), True, classical_route="even")
    if kind == "prime":
        return FactorResult(n, method, None, False, classical_route="prime")
    if kind == "prime-power":
        p = _prime_power_base(n)
        return FactorResult(n, method, (p, n // p), True, classical_route="prime-power")

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
class ComparisonReport:
    """Both period finders on one instance, plus the Fisher trace of the
    amplification path demonstrating its constancy."""

    seed: int
    modulus: int
    base: int
    register_size: int
    methods: dict[str, PeriodResult]
    fisher_phis: list[float]
    fisher_values: list[float]

    def to_dict(self) -> dict:
        """The JSON document; each method also reports its measurements as
        ``projective_measurements``."""
        return {
            "format_version": FORMAT_VERSION,
            "seed": self.seed,
            "instance": {
                "modulus": self.modulus,
                "base": self.base,
                "register_size": self.register_size,
            },
            "methods": {name: {**vars(result),
                               "projective_measurements": result.measurements}
                        for name, result in self.methods.items()},
            "fisher_trace": {
                "phi": list(self.fisher_phis),
                "fisher": list(self.fisher_values),
            },
        }


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
    trace = fisher_discrete(amplification_path(inst.search, trace_dphi, memory_cap))
    return ComparisonReport(
        seed=seed,
        modulus=inst.modulus,
        base=inst.base,
        register_size=inst.register_size,
        methods={SHOR: shor_res, GROVER_ADIABATIC: grover_res},
        fisher_phis=trace.phi.tolist(),
        fisher_values=trace.fisher.tolist(),
    )

