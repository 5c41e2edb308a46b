"""Quantum period finding and factorization, by projection or by search.

Two period finders share the same number-theoretic post-processing:

* ``shor_period`` measures the second register of the two-register state
  sum_a |a>|y^a mod N>, Fourier-transforms the first register, and
  extracts the period from the measured frequency by continued fractions.
  It draws the frequency from the closed-form readout distribution of the
  one column the projection leaves nonzero, with no FFT and no q-long
  array: the bisection reads its CDF off the sums of one half period of
  the kernel.  ``build_register`` and ``shor_project`` keep the dense pair
  state as the reference.

* ``grover_period`` amplifies the arguments a with y^a = y (mod N) by
  running amplitude amplification over the first register, samples the
  amplified state a few times, and takes gcds of the sample differences.
  Every primitive in this route is unitary except the final readout.  It
  holds the two amplitudes of the marked and unmarked arguments, and draws
  its readouts from their known pattern over the register.

Both return verified minimal periods along with operation counters.  The
run defaults and method names they use are defined in ``states``, which the
CLI reads without loading this module; only ``factor`` and ``compare`` load
it, when they run.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
import numpy as np

from .geometry import geodesic_columns
from .grover import (
    GroverInstance,
    SearchSizes,
    optimal_iterations,
    phi_of_step,
    recursion_trajectory,
)
from .states import (
    DEFAULT_BUDGET,
    DEFAULT_MEMORY_CAP,
    DEFAULT_SAMPLES,
    FORMAT_VERSION,
    GROVER_ADIABATIC,
    SHOR,
    StateVector,
    measure_register,
    require_amplitudes,
    require_normalized,
)


def order_bruteforce(y: int, n: int) -> int:
    """Smallest r >= 1 with y**r = 1 (mod n), by direct iteration."""
    if not 2 <= n <= 10**6:
        raise ValueError(f"brute-force order needs 2 <= n <= 10**6, got {n}")
    if math.gcd(y, n) != 1:
        raise ValueError(f"gcd({y}, {n}) != 1: multiplicative order undefined")
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
        the marginal, the projected column's size and the marked set off
        these r values.  The walk takes r < N Python steps: under 8 192 for
        any modulus whose register fits the default cap."""
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
    def value_cdf(self) -> np.ndarray:
        """The CDF that the function-register readout of
        :func:`shor_sample` draws from, over the N values, read-only, built
        on first use: every Shor attempt on this instance reads it."""
        cdf = _readout_cdf(_value_marginal(self))
        cdf.flags.writeable = False
        return cdf

    @functools.cached_property
    def frequency_sines(self) -> np.ndarray:
        """The sin^2 table of :func:`_frequency_sines`, q' / 2 + 1 floats
        for q' = q / gcd(r, q), read-only, built on first use: it depends
        on q' alone, so every Shor attempt on this instance reads it,
        whichever m its column holds."""
        sines = _frequency_sines(self.register_size, self.orbit.size)
        sines.flags.writeable = False
        return sines

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
        built on first use from :func:`marked_arguments`: the dense
        reference's instance, which no command builds."""
        return GroverInstance(self.register_size, marked_arguments(self))

    @property
    def search_sizes(self) -> SearchSizes:
        """That search by its sizes: q arguments, of which the
        M = (q - 2) // r + 1 with a = 1 (mod r) below q are marked."""
        q = self.register_size
        return SearchSizes(q, (q - 2) // self.orbit.size + 1)


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


def _readout_cdf(p: np.ndarray) -> np.ndarray:
    """The cumulative sums that ``Generator.choice(p.size, p=p)`` draws from
    (numpy 2.4.6 builds ``p.cumsum()`` and divides it by its last entry),
    built in p's own memory and left undivided: :func:`_draw` divides the
    entries it reads.  p is non-negative and normalised where it is made,
    so choice's checks of it are not repeated."""
    return np.cumsum(p, out=p)


def _draw(cdf, rng: np.random.Generator) -> int:
    """One of ``choice``'s readouts from the distribution with these
    cumulative sums, an array or a :class:`_PeriodicCdf`: one
    ``rng.random()`` call, placed by bisection on ``cdf / cdf[-1]``.  Only
    the ~log2(len(cdf)) entries it probes are read and divided, each to the
    same IEEE quotient as in choice's normalised CDF of the same sums, so
    the index and generator state are those of ``rng.choice(len(cdf),
    p=p)``."""
    total = cdf[-1]
    return bisect.bisect_right(cdf, rng.random(), key=lambda c: c / total)


class _PeriodicCdf:
    """The undivided cumulative sums S[k] = p[0] + ... + p[k], k < size, of
    a distribution that repeats every q' = 2 h readouts and is symmetric
    within a period, p[q' - k] = p[k], held as p[0] and the h partial sums
    H[i] = p[1] + ... + p[i + 1] of one half period.

    A sequence of ``size`` floats, negative indexes too, for :func:`_draw`'s
    bisection: entry k = b q' + j is b P + C[j], with P = C[q' - 1] the sum
    of one period, C[j] = p[0] + H[j - 1] for j <= h, and above h the
    mirrored half added to C[h]: C[j] = C[h] + (H[h - 2] - H[q' - j - 2]),
    the sum of p[h + 1..j] = p[q' - j..h - 1].  Each entry is O(1), and the
    entries are non-decreasing in floating point as the sums are: H is,
    so the difference of two of its entries grows with j, and the block
    offset b P is shared by a period's entries, whose last, P, lies p[0]
    below the next block's first."""

    def __init__(self, size: int, head: float, half_sums: np.ndarray):
        self._size = size
        self._half_sums = half_sums
        self._half = half_sums.size
        self._period = 2 * self._half
        self._head = head
        self._middle = head + half_sums.item(-1)  # C[h]
        self._below_middle = half_sums.item(-2) if self._half > 1 else 0.0  # H[h - 2]
        self.period_sum = self._middle + self._below_middle

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, k: int) -> float:
        if k < 0:
            k += self._size
        if not 0 <= k < self._size:
            raise IndexError(f"index {k} out of range for {self._size} sums")
        block, j = divmod(k, self._period)
        if j == 0:
            within = self._head
        elif j <= self._half:
            within = self._head + self._half_sums.item(j - 1)
        else:
            mirrored = self._half_sums.item(self._period - j - 2) if j < self._period - 1 else 0.0
            within = self._middle + (self._below_middle - mirrored)
        return block * self.period_sum + within


_CHUNK = 1 << 14  # readouts per pass of _frequency_cdf's fill


def _frequency_sines(q: int, r: int) -> np.ndarray:
    """sin^2(pi i / q') for i <= q' / 2, q' = q / gcd(r, q): the table that
    :func:`_frequency_cdf` reads both angles of the kernel from."""
    period = q // math.gcd(r, q)
    return np.sin(np.arange(period // 2 + 1) * (np.pi / period)) ** 2


def _frequency_cdf(q: int, r: int, m: int, sines: np.ndarray) -> _PeriodicCdf:
    """The undivided cumulative sums, as :func:`_readout_cdf` leaves them,
    of qft's readout distribution for a column uniform on the m arguments
    a = j (mod r) below q: the Dirichlet kernel p[k] = sin^2(pi m x / q) /
    (q m sin^2(pi x / q)), x = r k mod q, and m / q where x = 0 (Shor,
    quant-ph/9508027, section 5).  With g = gcd(r, q), x / q = t / q' for
    q' = q / g and t = (r / g) k mod q'; r / g is odd, so x = 0 only at
    k = 0 (mod q'), p repeats every q' readouts and p[q' - k] = p[k].  Only
    k in [1, q' / 2] is evaluated, in chunks: t and m t mod q' exactly in
    int64 (products below q^2 <= 2^52), folded onto ``sines``, the table of
    :func:`_frequency_sines` for (q, r).  Their partial sums, built in
    place, are the q' / 2 floats that the returned :class:`_PeriodicCdf`
    reads all q sums from."""
    g = math.gcd(r, q)
    period = q // g
    half = period // 2
    stride = r // g
    steps = np.array([[m * stride % period], [stride]])  # m t and t per step of k
    half_sums = np.empty(half)  # p[k] at half_sums[k - 1]
    for start in range(1, half + 1, _CHUNK):
        angles = steps * np.arange(start, min(start + _CHUNK, half + 1))
        angles &= period - 1
        np.minimum(angles, period - angles, out=angles)  # folded onto i <= q' / 2
        above, below = sines[angles]
        below *= q * m
        np.divide(above, below, out=half_sums[start - 1:start - 1 + below.size])
    cdf = _PeriodicCdf(q, m / q, np.cumsum(half_sums, out=half_sums))
    require_normalized(g * cdf.period_sum)
    return cdf


def _amplified_readouts(inst: PeriodInstance, k: float, l: float, uniforms) -> list[int]:
    """Readouts of the amplified register, with amplitude k on each marked
    and l on each unmarked argument, one per uniform in [0, 1), by
    inverting the CDF of its known pattern: argument 0 carries l^2, then
    each block of r arguments carries k^2 at its marked argument 1 + b r
    and l^2 at the r - 1 after it, the last block cut off at q - 1.  Each
    uniform lands where ``searchsorted(side="right")`` puts it on the
    normalised cumulative sums of the q probabilities, up to their rounding,
    with no q-long array."""
    q, m = inst.search_sizes
    r = inst.orbit.size
    marked, unmarked = k * k, l * l
    block = marked + (r - 1) * unmarked
    total = m * marked + (q - m) * unmarked
    readouts = []
    for u in uniforms:
        mass = u * total - unmarked  # beyond argument 0
        if mass < 0.0:
            readouts.append(0)
            continue
        b = math.floor(mass / block)
        beyond = mass - b * block - marked  # beyond block b's marked argument
        readout = 1 + b * r
        if beyond >= 0.0 and unmarked:  # an exact landing has l = 0, no mass here
            readout += 1 + math.floor(beyond / unmarked)
        readouts.append(min(readout, q - 1))
    return readouts


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

    Measures the function register, then Fourier-samples the one column of
    the pair state that the projection leaves nonzero, from the closed form
    of its readout distribution (:func:`_frequency_cdf`): the sums of one
    half period of its kernel, read through the instance's sin^2 table.
    Makes the same draws from ``rng`` as ``build_register`` ->
    ``shor_project`` -> ``qft`` -> ``measure_register``, with probabilities
    equal up to rounding, with no column, no FFT and no q-long array.

    Raises :class:`ResourceLimitError` if the q amplitudes of the argument
    register exceed ``memory_cap``.
    """
    require_amplitudes(inst.register_size, memory_cap, "register")
    l = _draw(inst.value_cdf, rng)
    q, orbit = inst.register_size, inst.orbit
    m = (q - 1 - orbit.tolist().index(l)) // orbit.size + 1  # arguments a = j (mod r) below q
    return l, _draw(_frequency_cdf(q, orbit.size, m, inst.frequency_sines), rng)


def shor_period(
    inst: PeriodInstance,
    rng: np.random.Generator,
    budget: int = DEFAULT_BUDGET,
    memory_cap: int = DEFAULT_MEMORY_CAP,
) -> PeriodResult:
    """Find the period by measurement projection and Fourier sampling.

    Each attempt consumes one register preparation and two projective
    measurements.  Frequencies failing the continued-fraction check are
    retried, with lcm combination of previously seen denominators before an
    attempt is declared failed, for at most ``budget`` attempts.
    """
    y, n, q = inst.base, inst.modulus, inst.register_size
    oracle_calls = measurements = 0
    seen_denominators: list[int] = []
    for attempt in range(1, budget + 1):
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
    return PeriodResult(SHOR, None, oracle_calls, measurements, budget, False)


def grover_period(
    inst: PeriodInstance,
    rng: np.random.Generator,
    samples: int = DEFAULT_SAMPLES,
    budget: int = DEFAULT_BUDGET,
    memory_cap: int = DEFAULT_MEMORY_CAP,
) -> PeriodResult:
    """Find the period by amplitude amplification of {a : y^a = y (mod N)}.

    Per sample the loop is rebuilt from the uniform register and run for
    the optimal iteration count, then the register is read out once; the
    period is the verified gcd of pairwise differences of the samples.
    Rounds of fresh samples are drawn until verification succeeds or
    ``budget`` rounds have run.

    The loop runs on the two amplitudes (k, l) of the marked and unmarked
    arguments, and each readout is drawn from their pattern over the
    register (see :func:`_amplified_readouts`), so no q-long array is
    built; the q amplitudes of the register are still charged against
    ``memory_cap``.

    The schedule assumes the marked count: the iteration count
    floor(pi / (4 theta)) comes from sin^2 theta = M/q with M = ceil((q-1)/r)
    marked arguments, so it is set from the period it looks for.  The
    unknown-count schedule of Boyer, Brassard, Hoyer and Tapp
    (quant-ph/9605034) is not used: a prototype with a random iteration
    count per readout left 20 of the 188 (N <= 50, y) instances of
    acceptance criterion 5 unresolved within 20 rounds.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    y, n, q = inst.base, inst.modulus, inst.register_size
    require_amplitudes(q, memory_cap, "register")
    search = inst.search_sizes
    steps = optimal_iterations(search)
    k, l = recursion_trajectory(search, steps, memory_cap)[-1].tolist()
    m = search.n_marked
    require_normalized(m * k * k + (q - m) * l * l)
    oracle_calls = measurements = 0
    for round_index in range(1, budget + 1):
        # One call for `samples` uniforms makes the draws of one call per
        # readout.  The gcd of the differences to the first readout is the
        # gcd of all pairwise differences; it is 0 when every readout is the
        # same.
        first, *rest = _amplified_readouts(inst, k, l, rng.random(samples).tolist())
        g = math.gcd(*(outcome - first for outcome in rest))
        oracle_calls += samples * steps  # one oracle application per loop iteration
        measurements += samples
        period = _verified_minimal_period(y, n, g)
        if period is not None:
            return PeriodResult(
                GROVER_ADIABATIC, period, oracle_calls, measurements, round_index, True)
    return PeriodResult(GROVER_ADIABATIC, None, oracle_calls, measurements, budget, False)


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
    tried, and a root is searched in turn before it is tested for primality,
    so the Miller-Rabin test runs only on the base.  A prime of
    :data:`_WITNESSES` that divides n is the only candidate for p, so n is
    then compared with its powers and no root is taken.  Otherwise p >= 43
    and n >= 43^k > 2^(5k), so no exponent beyond bits // 5 can divide e.
    """
    for p in _WITNESSES:
        if n % p == 0:
            power = p * p
            while power < n:
                power *= p
            return p if power == n else None
    for k in range(2, n.bit_length() // 5 + 1):
        if _is_prime(k):
            root = _integer_root(n, k)
            if root**k == n:
                return _prime_power_base(root) or (root if _is_prime(root) else None)
    return None


def classify_modulus(n: int) -> str:
    """'ok' for an odd composite non-prime-power, else the violated class."""
    if n < 3:
        return "too-small"
    if n % 2 == 0:
        return "even"
    if _prime_power_base(n) is not None:  # before the costlier primality test
        return "prime-power"
    if _is_prime(n):
        return "prime"
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
    budget: int = DEFAULT_BUDGET,
    samples: int = DEFAULT_SAMPLES,
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
    amplification route's run demonstrating its constancy."""

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
    samples: int = DEFAULT_SAMPLES,
    budget: int = DEFAULT_BUDGET,
    memory_cap: int = DEFAULT_MEMORY_CAP,
) -> ComparisonReport:
    """Run both period finders on ``inst``, each within ``budget`` attempts
    or rounds, with child streams derived from a shared seed, and report
    their counters side by side.

    Every Shor measurement is a projective state reduction; the
    amplification route only measures when sampling the amplified state.
    The Fisher trace is read off the states that route visits, steps 0..s
    of its search with s its iteration count, at phi = (2j + 1) theta.
    """
    shor_rng, grover_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    shor_res = shor_period(inst, shor_rng, budget=budget, memory_cap=memory_cap)
    grover_res = grover_period(inst, grover_rng, samples=samples, budget=budget,
                               memory_cap=memory_cap)
    search = inst.search_sizes
    steps = optimal_iterations(search)
    fisher = geodesic_columns(search, recursion_trajectory(search, steps, memory_cap))[0]
    return ComparisonReport(
        seed=seed,
        modulus=inst.modulus,
        base=inst.base,
        register_size=inst.register_size,
        methods={SHOR: shor_res, GROVER_ADIABATIC: grover_res},
        fisher_phis=phi_of_step(search, np.arange(steps + 1)).tolist(),
        fisher_values=fisher.tolist(),
    )

