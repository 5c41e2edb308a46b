"""Number theory, register construction, both period finders, factoring."""

import functools
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgeodesic import (
    GROVER_ADIABATIC,
    GroverInstance,
    SHOR,
    PeriodInstance,
    ResourceLimitError,
    build_register,
    classify_modulus,
    compare_methods,
    continued_fraction_denominator,
    default_register_size,
    factor,
    grover_period,
    grover_step,
    marked_arguments,
    measure_register,
    new_uniform,
    optimal_iterations,
    order_bruteforce,
    qft,
    shor_period,
    shor_project,
    shor_sample,
)
from qgeodesic import StateVector, period
from qgeodesic.grover import recursion_trajectory, search_angle
from qgeodesic.period import (
    DEFAULT_BUDGET,
    PeriodResult,
    _amplified_readouts,
    _integer_root,
    _prime_power_base,
    _verified_minimal_period,
)

FACTORABLE = [15, 21, 33, 35, 39, 45]  # odd composite non-prime-powers <= 50


def valid_bases(n):
    return [y for y in range(2, n) if math.gcd(y, n) == 1]


SWEEP = [(n, y) for n in FACTORABLE for y in valid_bases(n)]


class TestOrderBruteforce:
    @pytest.mark.parametrize("y,n,expected", [(2, 15, 4), (2, 21, 6), (1, 15, 1)])
    def test_examples(self, y, n, expected):
        assert order_bruteforce(y, n) == expected

    def test_divides_into_identity(self):
        for n in FACTORABLE:
            for y in valid_bases(n):
                r = order_bruteforce(y, n)
                assert pow(y, r, n) == 1
                assert all(pow(y, d, n) != 1 for d in range(1, r))

    def test_shared_factor_rejected(self):
        with pytest.raises(ValueError):
            order_bruteforce(6, 15)

    def test_modulus_below_2_rejected(self):
        # in a subprocess with a timeout, so that a loop that never reaches
        # y^r = 1 fails the test instead of stalling the suite
        script = ("from qgeodesic.period import order_bruteforce\n"
                  "for y, n in ((2, 1), (3, -7), (1, 0)):\n"
                  "    try:\n"
                  "        order_bruteforce(y, n)\n"
                  "    except ValueError as exc:\n"
                  "        print(exc)\n")
        src = str(Path(period.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "".join(
            f"brute-force order needs 2 <= n <= 10**6, got {n}\n" for n in (1, -7, 0))


class TestRegisterSize:
    @pytest.mark.parametrize("n,q", [(15, 256), (21, 512), (33, 2048), (45, 2048)])
    def test_examples(self, n, q):
        assert default_register_size(n) == q

    @pytest.mark.parametrize("n", range(3, 200, 2))
    def test_bounds(self, n):
        q = default_register_size(n)
        assert n * n < q < 2 * n * n
        assert q & (q - 1) == 0


class TestPeriodInstance:
    def test_defaults(self):
        inst = PeriodInstance(15, 2)
        assert inst.register_size == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodInstance(15, 5)  # shared factor
        with pytest.raises(ValueError):
            PeriodInstance(15, 1)
        with pytest.raises(ValueError):
            PeriodInstance(2, 1)


class TestBuildRegister:
    def test_n15_structure(self):
        state = build_register(PeriodInstance(15, 2))
        mat = state.as_matrix()
        assert mat.shape == (256, 15)
        nonzero = np.abs(mat) > 1e-15
        assert nonzero.sum() == 256
        for a in range(256):
            expected_col = pow(2, a, 15)
            assert nonzero[a].sum() == 1
            assert abs(mat[a, expected_col] - 1.0 / 16.0) < 1e-15
        assert abs(state.norm() - 1.0) < 1e-12

    def test_second_register_support(self):
        state = build_register(PeriodInstance(15, 2))
        support = np.nonzero(np.abs(state.as_matrix()).sum(axis=0) > 1e-12)[0]
        assert set(support.tolist()) == {1, 2, 4, 8}

    def test_memory_cap(self):
        with pytest.raises(ResourceLimitError):
            build_register(PeriodInstance(15, 2), memory_cap=100)


class TestShorProject:
    def test_outcome_probabilities_exact(self):
        state = build_register(PeriodInstance(15, 2))
        marginal = np.sum(np.abs(state.as_matrix()) ** 2, axis=0)
        for value in (1, 2, 4, 8):
            assert abs(marginal[value] - 0.25) < 1e-12

    def test_collapsed_is_arithmetic_progression(self):
        for n, y in [(15, 2), (21, 2)]:
            inst = PeriodInstance(n, y)
            r = order_bruteforce(y, n)
            state = build_register(inst)
            outcome, collapsed = shor_project(state, np.random.default_rng(3))
            support = np.nonzero(
                np.abs(collapsed.as_matrix()).sum(axis=1) > 1e-12)[0]
            assert np.all(np.diff(support) == r)
            values = collapsed.as_matrix()[support, outcome]
            assert np.max(np.abs(values - values[0])) < 1e-12
            assert abs(collapsed.norm() - 1.0) < 1e-12

    def test_outcome_1_support_and_amplitude(self):
        inst = PeriodInstance(15, 2)
        state = build_register(inst)
        for seed in range(30):
            outcome, collapsed = shor_project(state, np.random.default_rng(seed))
            if outcome == 1:
                break
        else:
            pytest.fail("outcome 1 never observed")
        support = np.nonzero(np.abs(collapsed.as_matrix()).sum(axis=1) > 1e-12)[0]
        assert np.array_equal(support, np.arange(0, 256, 4))
        assert support.size == 64
        assert np.allclose(collapsed.as_matrix()[support, 1], 0.125, atol=1e-12)


def dense_shor_sample(inst, rng):
    """The reference chain on the full q x N pair state."""
    l, collapsed = shor_project(build_register(inst), rng)
    c, _ = measure_register(qft(collapsed, register=0), 0, rng)
    return l, c


def assert_same_draws(n, y, seed):
    inst = PeriodInstance(n, y)
    fast, dense = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):  # consecutive draws share one generator
        assert shor_sample(inst, fast) == dense_shor_sample(inst, dense)


class RecordingGenerator:
    """A seeded generator's ``random`` that keeps the ``size`` of every call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def random(self, size=None):
        self.sizes.append(size)
        return self.rng.random(size)


@pytest.fixture
def drawn_cdfs(monkeypatch):
    """The values of the cumulative sums of every readout draw, in order."""
    cdfs = []
    draw = period._draw

    def recording(cdf, rng):
        cdfs.append(np.array([cdf[k] for k in range(len(cdf))]))
        return draw(cdf, rng)

    monkeypatch.setattr(period, "_draw", recording)
    return cdfs


def cached_property_builds(monkeypatch, name):
    """Instances whose cached property ``name`` is built, one entry per build."""
    builds = []
    build = vars(PeriodInstance)[name].func

    def counting(inst):
        builds.append(inst)
        return build(inst)

    spy = functools.cached_property(counting)
    spy.__set_name__(PeriodInstance, name)
    monkeypatch.setattr(PeriodInstance, name, spy)
    return builds


class TestModexpTable:
    @pytest.mark.parametrize("n,y", SWEEP + [(91, 3), (143, 2), (221, 7), (323, 5)])
    def test_matches_builtin_pow(self, n, y):
        inst = PeriodInstance(n, y)
        table = inst.table
        assert table.dtype == np.int64
        assert table.tolist() == [pow(y, a, n) for a in range(inst.register_size)]

    def test_read_only(self):
        inst = PeriodInstance(15, 2)
        with pytest.raises(ValueError):
            inst.table[0] = 5
        assert inst.table[0] == 1


def valid_instances(max_modulus):
    """(N, y) with 3 <= N <= max_modulus, 1 < y < N coprime to N, and a
    register size for N."""
    return st.integers(3, max_modulus).filter(lambda n: n & (n - 1)).flatmap(
        lambda n: st.tuples(st.just(n), st.sampled_from(valid_bases(n))
                            if valid_bases(n) else st.nothing()))


def table_marginal(inst):
    marginal = np.bincount(inst.table, minlength=inst.modulus) / inst.register_size
    return marginal / marginal.sum()


def table_column(inst, value):
    column = inst.table == value
    amps = np.zeros(inst.register_size, dtype=np.complex128)
    amps[column] = 1.0 / np.sqrt(np.count_nonzero(column))
    return amps


class TestOrbit:
    """The commands read f(a) = y^a mod N off its r values, never off the
    q-long table; what they read equals the table's, byte for byte."""

    @pytest.mark.parametrize("n,y", [(15, 2), (21, 2), (91, 3), (1023, 1022)])
    def test_is_the_powers_up_to_the_order(self, n, y):
        orbit = PeriodInstance(n, y).orbit
        assert orbit.dtype == np.int64
        assert orbit.tolist() == [pow(y, j, n) for j in range(order_bruteforce(y, n))]
        with pytest.raises(ValueError):
            orbit[0] = 5

    @settings(max_examples=150, deadline=None)
    @given(valid_instances(400))
    def test_reads_equal_the_tables(self, case):
        n, y = case
        inst = PeriodInstance(n, y)
        assert inst.orbit.size == order_bruteforce(y, n)
        assert period._value_marginal(inst).tobytes() == table_marginal(inst).tobytes()
        table = inst.table
        assert (marked_arguments(inst).tobytes()
                == np.nonzero(table == table[1])[0].tobytes())

    def test_compare_builds_one_orbit(self, monkeypatch):
        orbits = cached_property_builds(monkeypatch, "orbit")
        tables = cached_property_builds(monkeypatch, "table")
        inst = PeriodInstance(143, 108)
        compare_methods(inst, seed=1)
        assert orbits == [inst] and tables == []

    def test_factor_builds_one_orbit_per_base(self, monkeypatch):
        orbits = cached_property_builds(monkeypatch, "orbit")
        tables = cached_property_builds(monkeypatch, "table")
        for method in (SHOR, GROVER_ADIABATIC):
            orbits.clear()
            result = factor(91, method, np.random.default_rng(3))  # three bases
            tried = [a["y"] for a in result.attempts if a["outcome"] != "shared-factor"]
            assert [inst.base for inst in orbits] == tried
        assert tables == []


class TestValueCdf:
    """The function-register readout draws from one CDF per instance, and
    the frequency readouts read one sin^2 table per instance."""

    def test_is_the_readout_cdf_of_the_marginal(self):
        inst = PeriodInstance(91, 3)
        cdf = inst.value_cdf
        expected = period._readout_cdf(period._value_marginal(inst))
        assert cdf.tobytes() == expected.tobytes()
        assert inst.value_cdf is cdf
        with pytest.raises(ValueError):
            cdf[0] = 0.5

    def test_one_build_per_instance(self, monkeypatch):
        builds = cached_property_builds(monkeypatch, "value_cdf")
        sines = cached_property_builds(monkeypatch, "frequency_sines")
        inst = PeriodInstance(143, 108)
        assert shor_period(inst, np.random.default_rng(1)).attempts == 7
        assert builds == [inst] and sines == [inst]
        with pytest.raises(ValueError):
            inst.frequency_sines[0] = 0.5
        builds.clear()
        sines.clear()
        inst = PeriodInstance(143, 108)
        report = compare_methods(inst, seed=1)
        assert report.methods[SHOR].attempts == 2 and builds == [inst] and sines == [inst]


class TestShorSampleMatchesDense:
    @pytest.mark.parametrize("n", FACTORABLE)
    def test_seeded_draws_over_sweep(self, n):
        for y in valid_bases(n):
            for seed in range(5):
                assert_same_draws(n, y, seed)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SWEEP), st.integers(0, 2**63 - 1))
    def test_seeded_draws_property(self, case, seed):
        assert_same_draws(*case, seed)

    @pytest.mark.parametrize("n,y", [(15, 2), (21, 5), (35, 2), (45, 7), (91, 3),
                                     (143, 2), (221, 7)])
    def test_readout_is_the_qft_of_the_column(self, n, y, drawn_cdfs):
        """The frequency is drawn from the closed-form Dirichlet kernel, whose
        CDF agrees with the normalised CDF of |c|^2 from qft on the
        projected column to within 1e-12 (max-abs; the kernel differs from
        the transform only by rounding, measured at a few 1e-16 on these
        instances), and the frequency drawn is choice's on the dense CDF."""
        inst = PeriodInstance(n, y)
        for seed in range(3):
            drawn_cdfs.clear()
            l, c = shor_sample(inst, np.random.default_rng(seed))
            expected = np.abs(qft(StateVector(table_column(inst, l))).amplitudes) ** 2
            cdf = np.cumsum(expected / expected.sum())
            cdf /= cdf[-1]
            assert len(drawn_cdfs) == 2  # the function value, then the frequency
            sums = drawn_cdfs[1]
            assert sums.size == inst.register_size
            assert np.max(np.abs(sums / sums[-1] - cdf)) <= 1e-12
            rng = np.random.default_rng(seed)
            rng.random()  # the function value's uniform
            assert c == cdf.searchsorted(rng.random(), side="right")

    def test_peak_is_the_column_and_its_distribution(self):
        # The charged register is q complex amplitudes (16 q bytes).  One
        # call holds the sin^2 table and the partial sums of one half
        # period, q' / 2 floats each for q' = q / gcd(r, q), and one chunk's
        # temporaries, with no complex column and no q-long distribution:
        # 4 q bytes at q = 2^20, r = 2, and 8 q bytes at q = 2^22, r = 11,
        # where r is odd, q' = q and the half period is longest.
        for n, y, q in ((1023, 1022, 1 << 20), (2047, 2, 1 << 22)):
            inst = PeriodInstance(n, y)
            assert inst.register_size == q
            tracemalloc.start()
            try:
                shor_sample(inst, np.random.default_rng(1))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 0.6 * q * 16, f"q = {q}: peak {peak / 2**20:.1f} MiB"

    def test_peak_stays_under_a_register_when_m_changes(self, monkeypatch):
        # q = 2^20, r = 10: the column holds 104 858 arguments for j < 6 and
        # 104 857 for j >= 6.  Attempts that alternate the two hold no CDF
        # from one attempt into the next.
        inst = PeriodInstance(1023, 2)
        assert inst.register_size == 1 << 20
        sizes = []
        build = period._frequency_cdf

        def recording(q, r, m, sines):
            sizes.append(m)
            return build(q, r, m, sines)

        monkeypatch.setattr(period, "_frequency_cdf", recording)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            for _ in range(4):
                shor_sample(inst, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(set(sizes)) == [104857, 104858]
        assert peak <= 0.6 * (1 << 20) * 16, f"peak {peak / 2**20:.1f} MiB"

    def test_needs_q_amplitudes_not_q_times_n(self):
        inst = PeriodInstance(15, 2)
        q = inst.register_size
        l, c = shor_sample(inst, np.random.default_rng(0), memory_cap=q)
        assert l in (1, 2, 4, 8) and c % 64 == 0
        with pytest.raises(ResourceLimitError):
            shor_sample(inst, np.random.default_rng(0), memory_cap=q - 1)
        with pytest.raises(ResourceLimitError):
            build_register(inst, memory_cap=q)

    def test_unnormalised_column_is_refused(self, monkeypatch):
        # a planted fault: one argument too many for the stride, so the
        # kernel of m = 65 arguments a = j (mod 4) below q = 256 sums to
        # 1.03, not 1
        build = period._frequency_cdf
        monkeypatch.setattr(period, "_frequency_cdf",
                            lambda q, r, m, sines: build(q, r, m + 1, sines))
        with pytest.raises(ValueError, match="state is not normalized"):
            shor_sample(PeriodInstance(15, 2), np.random.default_rng(0))


def materialised_kernel(q, r, m):
    """The q readout probabilities p[k] of the Dirichlet kernel, each from
    its own angles in float64, with no period, symmetry or table."""
    x = np.arange(q) * r % q
    p = np.full(q, m / q)
    nonzero = x != 0
    p[nonzero] = (np.sin(np.pi * (m * x[nonzero] % q) / q) ** 2
                  / (q * m * np.sin(np.pi * x[nonzero] / q) ** 2))
    return p


@st.composite
def kernel_cases(draw):
    """(q, r, m): q <= 2^12, 2 <= r < sqrt(q), so gcd(r, q) runs from 1 to
    32, and the m of a residue j < r, either of its two values."""
    q = 1 << draw(st.integers(3, 12))
    r = draw(st.integers(2, math.isqrt(q - 1)))
    j = draw(st.integers(0, r - 1))
    return q, r, (q - 1 - j) // r + 1


class TestPeriodicCdf:
    """The frequency readout's CDF, read off one half period's sums, against
    the cumulative sums of the q-long kernel it no longer builds."""

    @settings(max_examples=200, deadline=None)
    @given(kernel_cases(), st.integers(0, 2**63 - 1))
    def test_is_the_cumsum_of_the_materialised_kernel(self, case, seed):
        q, r, m = case
        cdf = period._frequency_cdf(q, r, m, period._frequency_sines(q, r))
        assert len(cdf) == q and cdf[-1] == cdf[q - 1] and cdf[-q] == cdf[0]
        for k in (q, -q - 1):
            with pytest.raises(IndexError):
                cdf[k]
        values = np.array([cdf[k] for k in range(q)])
        p = materialised_kernel(q, r, m)
        assert np.max(np.abs(values - np.cumsum(p))) <= 1e-12
        # every step, the mirror junction q'/2 -> q'/2 + 1 and each block
        # boundary among them
        assert np.all(np.diff(values) >= 0.0)
        expected = np.cumsum(p)
        expected /= expected[-1]
        by_cdf, by_uniform = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(8):
            assert period._draw(cdf, by_cdf) == expected.searchsorted(
                by_uniform.random(), side="right")


class TestContinuedFractions:
    @pytest.mark.parametrize("c,q,bound,expected", [
        (192, 256, 15, 4),
        (0, 256, 15, None),
        (179, 256, 256, 256),
        (85, 512, 21, 6),
    ])
    def test_examples(self, c, q, bound, expected):
        assert continued_fraction_denominator(c, q, bound) == expected

    def test_against_fraction_convergents(self):
        """Independent oracle: enumerate convergents with Fraction arithmetic."""
        rng = np.random.default_rng(4)
        for _ in range(200):
            q = 1 << int(rng.integers(3, 12))
            c = int(rng.integers(1, q))
            bound = int(rng.integers(1, q + 1))
            terms = []
            num, den = c, q
            while den:
                a, (num, den) = num // den, (den, num % den)
                terms.append(a)
            convergents = []
            for k in range(1, len(terms) + 1):
                frac = Fraction(terms[k - 1])
                for term in reversed(terms[: k - 1]):
                    frac = term + 1 / frac
                convergents.append(frac)
            denominators = [f.denominator for f in convergents]
            expected = max((d for d in denominators if d <= bound), default=None)
            assert continued_fraction_denominator(c, q, bound) == expected

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            continued_fraction_denominator(300, 256, 15)
        with pytest.raises(ValueError):
            continued_fraction_denominator(10, 256, 0)


def best_approximation_denominators(c, q, bound):
    """Denominators d <= bound with ||d c/q|| below that of every smaller d:
    the best approximations of the second kind, which are exactly the
    convergent denominators (Lagrange)."""
    found, best = [], None
    for d in range(1, bound + 1):
        distance = min(d * c % q, q - d * c % q)  # q * ||d c/q||
        if best is None or distance < best:
            found.append(d)
            best = distance
        if distance == 0:
            break
    return found


class TestNumberTheoryProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4096).flatmap(lambda q: st.tuples(
        st.integers(0, q - 1), st.just(q), st.integers(1, 2 * q))))
    def test_denominator_is_largest_best_approximation(self, case):
        c, q, bound = case
        expected = max(best_approximation_denominators(c, q, bound)) if c else None
        assert continued_fraction_denominator(c, q, bound) == expected

    @settings(max_examples=500, deadline=None)
    @given(st.integers(-10, 10**6))
    def test_classify_modulus_partition(self, n):
        factors = {}
        m, d = n, 2
        while n >= 2 and d * d <= m:
            while m % d == 0:
                factors[d] = factors.get(d, 0) + 1
                m //= d
            d += 1
        if n >= 2 and m > 1:
            factors[m] = factors.get(m, 0) + 1
        classes = {
            "too-small": n < 3,
            "even": n >= 3 and n % 2 == 0,
            "prime": n >= 3 and n % 2 == 1 and factors == {n: 1},
            "prime-power": n >= 3 and n % 2 == 1 and len(factors) == 1
                           and max(factors.values()) >= 2,
            "ok": n >= 3 and n % 2 == 1 and len(factors) >= 2,
        }
        assert sum(classes.values()) == 1
        assert classes[classify_modulus(n)]


class TestOraclePredicate:
    def test_n15_marked_set(self):
        inst = PeriodInstance(15, 2)
        expected = {a for a in range(256) if pow(2, a, 15) == 2}
        assert expected == set(marked_arguments(inst).tolist())
        assert expected == set(range(1, 256, 4))
        # enumerated count is 64; the truncated-quotient estimate gives 63
        assert len(expected) == 64
        assert (256 - 1) // 4 == 63

    def test_marked_count_near_q_over_r(self):
        for n in FACTORABLE:
            for y in valid_bases(n):
                inst = PeriodInstance(n, y)
                tau = marked_arguments(inst).size
                r = order_bruteforce(y, n)
                assert abs(tau - inst.register_size / r) < 1


class TestVerifiedMinimalPeriod:
    def test_strips_extra_factors(self):
        assert _verified_minimal_period(2, 15, 8) == 4
        assert _verified_minimal_period(2, 15, 12) == 4
        assert _verified_minimal_period(2, 21, 18) == 6

    def test_rejects_non_identity(self):
        assert _verified_minimal_period(2, 15, 3) is None
        assert _verified_minimal_period(2, 15, 0) is None

    def test_lcm_combination(self):
        # order of 2 mod 13 is 12; denominators 4 and 6 fail alone
        assert _verified_minimal_period(2, 13, 4) is None
        assert _verified_minimal_period(2, 13, 6) is None
        assert _verified_minimal_period(2, 13, math.lcm(4, 6)) == 12

    def test_sample_difference_extraction(self):
        # gcd(|101-13|, |37-101|, |37-13|) = 8, minimized to the order 4
        assert math.gcd(math.gcd(88, 64), 24) == 8

        inst = PeriodInstance(15, 2)
        p, _ = amplified_distribution(inst)
        cdf = np.cumsum(p)
        cdf /= cdf[-1]

        class Scripted:
            """An rng whose one round of uniforms lands on the given outcomes."""

            def __init__(self, outcomes):
                self.outcomes = outcomes

            def random(self, size):
                assert size == len(self.outcomes)
                # the midpoint of each outcome's interval of the CDF
                return np.array([(cdf[o - 1] + cdf[o]) / 2 for o in self.outcomes])

        found = grover_period(inst, Scripted([13, 101, 37]), samples=3, budget=1)
        assert found.succeeded and found.period == 4 and found.measurements == 3
        same = grover_period(inst, Scripted([13, 13, 13]), samples=3, budget=1)
        assert not same.succeeded and same.period is None and same.measurements == 3


class TestShorPeriod:
    def test_n15(self):
        result = shor_period(PeriodInstance(15, 2), np.random.default_rng(7))
        assert result.succeeded and result.period == 4
        assert result.method == SHOR
        assert result.measurements == 2 * result.attempts

    def test_n21_needs_continued_fractions(self):
        result = shor_period(PeriodInstance(21, 2), np.random.default_rng(5))
        assert result.succeeded and result.period == 6

    def test_deterministic(self):
        runs = [shor_period(PeriodInstance(33, 5), np.random.default_rng(11))
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_frequency_concentration_when_period_divides_q(self):
        """Measured frequencies sit exactly on multiples of q/r = 64, each
        class appearing with probability 1/4, within 3 sigma over 1e4 runs."""
        inst = PeriodInstance(15, 2)
        rng = np.random.default_rng(0)
        trials = 10**4
        counts = {}
        for _ in range(trials):
            _, c = shor_sample(inst, rng)
            counts[c] = counts.get(c, 0) + 1
        assert set(counts) <= {0, 64, 128, 192}
        sigma = math.sqrt(trials * 0.25 * 0.75)
        for c in (0, 64, 128, 192):
            assert abs(counts.get(c, 0) - trials * 0.25) <= 3 * sigma


    def test_one_shor_sample_per_attempt(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return shor_sample(*args)

        monkeypatch.setattr(period, "shor_sample", counting)
        for y in valid_bases(21):
            calls.clear()
            result = shor_period(PeriodInstance(21, y), np.random.default_rng(y))
            assert len(calls) == result.attempts == result.oracle_calls


class TestGroverPeriod:
    def test_n15_counters(self):
        result = grover_period(PeriodInstance(15, 2), np.random.default_rng(0))
        assert result.succeeded and result.period == 4
        assert result.method == GROVER_ADIABATIC
        # tau = 64 of q = 256: theta = pi/6, one iteration, three readouts
        assert result.attempts == 1
        assert result.oracle_calls == 3
        assert result.measurements == 3

    def test_n15_amplified_state_is_exact(self):
        inst = PeriodInstance(15, 2)
        search = inst.search_sizes
        steps = optimal_iterations(search)
        k, l = recursion_trajectory(search, steps)[-1]
        assert steps == 1 and search.n_marked == 64
        assert abs(64 * k * k - 1.0) < 1e-12 and l == 0.0

    def test_n21_amplified_mass_matches_closed_form(self):
        inst = PeriodInstance(21, 2)
        p, steps = amplified_distribution(inst)
        q, tau = inst.register_size, inst.search_sizes.n_marked
        theta = np.arcsin(np.sqrt(tau / q))
        expected = np.sin((2 * steps + 1) * theta) ** 2
        mass = p[marked_arguments(inst)].sum()
        assert abs(mass - expected) < 1e-10
        assert mass >= 1 - tau / q

    def test_readouts_lie_on_the_progression(self):
        inst = PeriodInstance(15, 2)
        search = inst.search_sizes
        k, l = recursion_trajectory(search, optimal_iterations(search))[-1]
        uniforms = np.random.default_rng(21).random(20).tolist()
        outcomes = _amplified_readouts(inst, k, l, uniforms)
        assert all(outcome % 4 == 1 for outcome in outcomes)

    def test_search_is_built_once_from_the_mask(self):
        inst = PeriodInstance(35, 4)
        search = inst.search
        assert inst.search is search
        assert search.n_items == inst.register_size
        assert np.array_equal(search.marked, marked_arguments(inst))
        assert not search.marked.flags.writeable

    @pytest.mark.parametrize("n,y", SWEEP + [(91, 3), (143, 2), (1023, 1022), (4087, 3)])
    def test_sizes_are_the_searchs(self, n, y):
        """(q, M) counted from the orbit, and theta with them, equal the
        dense instance's, bit for bit."""
        inst = PeriodInstance(n, y)
        sizes, search = inst.search_sizes, inst.search
        assert (sizes.n_items, sizes.n_marked) == (search.n_items, search.n_marked)
        assert sizes.theta == search.theta == search_angle(search.n_items, search.n_marked)
        assert optimal_iterations(sizes) == optimal_iterations(search)

    def test_no_q_long_allocation(self):
        # q = 2^24: the two amplitudes, the schedule and the readouts, with
        # no distribution, CDF or marked array (each 128 MiB at this q)
        inst = PeriodInstance(4087, 3)
        assert inst.register_size == 1 << 24
        rng = np.random.default_rng(1)  # made before tracing: not the route's
        tracemalloc.start()
        try:
            result = grover_period(inst, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.succeeded and result.period == order_bruteforce(3, 4087)
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_unnormalised_amplitudes_are_refused(self, monkeypatch):
        monkeypatch.setattr(period, "recursion_trajectory",
                            lambda *_: np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="state is not normalized"):
            grover_period(PeriodInstance(15, 2), np.random.default_rng(0))

    def test_n21_success_rate_over_200_seeds(self):
        inst = PeriodInstance(21, 2)
        successes = sum(
            grover_period(inst, np.random.default_rng(seed)).period == 6
            for seed in range(200))
        assert successes >= 190

    def test_samples_validation(self):
        with pytest.raises(ValueError):
            grover_period(PeriodInstance(15, 2), np.random.default_rng(0), samples=1)

    def test_one_random_call_per_round(self, monkeypatch):
        builds = []
        readout_cdf = period._readout_cdf
        monkeypatch.setattr(period, "_readout_cdf",
                            lambda p: builds.append(p.size) or readout_cdf(p))
        rounds = []
        for (n, y), samples in zip(SWEEP, itertools.cycle((2, 3, 5))):
            for seed in range(3):
                rng = RecordingGenerator(seed)
                result = grover_period(PeriodInstance(n, y), rng, samples=samples)
                assert rng.sizes == [samples] * result.attempts
                rounds.append(result.attempts)
        assert max(rounds) > 1
        assert builds == []  # the readouts invert the pattern's CDF in closed form

    def test_deterministic(self):
        runs = [grover_period(PeriodInstance(35, 2), np.random.default_rng(3))
                for _ in range(2)]
        assert runs[0] == runs[1]


class ZeroUniforms:
    """A generator whose every uniform is 0: Shor reads frequency 0, which
    carries no period, and every amplified readout is the same argument,
    whose differences have gcd 0; so no draw yields a verified period."""

    def random(self, size=None):
        return np.zeros(() if size is None else size)


class TestOneBudget:
    """Both finders search within DEFAULT_BUDGET attempts or rounds, the
    budget that factor and compare_methods take, unless given another."""

    @pytest.mark.parametrize("finder", [shor_period, grover_period])
    def test_failed_search_stops_at_the_budget(self, finder):
        inst = PeriodInstance(15, 2)
        result = finder(inst, ZeroUniforms())
        assert result.succeeded is False and result.period is None
        assert result.attempts == DEFAULT_BUDGET
        assert finder(inst, ZeroUniforms(), budget=3).attempts == 3


class TestBothMethodsAgreeWithBruteForce:
    def test_n15_all_bases(self):
        for y in valid_bases(15):
            expected = order_bruteforce(y, 15)
            inst = PeriodInstance(15, y)
            assert shor_period(inst, np.random.default_rng(y)).period == expected
            assert grover_period(inst, np.random.default_rng(y)).period == expected


def amplified_distribution(inst):
    """The amplified register's readout distribution over all q arguments,
    k^2 on each marked and l^2 on each unmarked argument, normalised, from
    the dense instance's marked array; and the iteration count.  The
    q-long reference of the closed-form readouts."""
    search = inst.search
    steps = optimal_iterations(search)
    k, l = recursion_trajectory(search, steps)[-1]
    p = np.full(search.n_items, l * l)
    p[search.marked] = k * k
    return p / p.sum(), steps


def reference_grover_period(inst, rng, steps, readouts, samples=3, budget=DEFAULT_BUDGET):
    """grover_period's rounds and counters, each round's readouts drawn by
    ``readouts(rng, samples)``."""
    oracle_calls = measurements = 0
    for round_index in range(1, budget + 1):
        outcomes = readouts(rng, samples)
        oracle_calls += samples * steps
        measurements += samples
        g = math.gcd(*(outcome - outcomes[0] for outcome in outcomes))
        found = _verified_minimal_period(inst.base, inst.modulus, g)
        if found is not None:
            return PeriodResult(
                GROVER_ADIABATIC, found, oracle_calls, measurements, round_index, True)
    return PeriodResult(
        GROVER_ADIABATIC, None, oracle_calls, measurements, budget, False)


def dense_amplified_state(inst):
    """The statevector search loop over the whole argument register."""
    search = GroverInstance(inst.register_size, marked_arguments(inst))
    steps = optimal_iterations(search)
    state = new_uniform(search.n_items)
    for _ in range(steps):
        state = grover_step(state, search.marked_mask())
    return state, steps, search.n_marked


class TestAmplifiedStateMatchesDense:
    """The two-amplitude readout distribution against the statevector loop,
    over every valid (N, y) with N <= 50 and seeds 0-4.  Powers of two have
    no register size strictly inside (N^2, 2 N^2)."""

    @pytest.mark.parametrize("n", [n for n in range(3, 51) if n & (n - 1)])
    def test_seeded_readouts(self, n):
        """The closed-form readouts give the result and counters of rounds
        drawn by ``choice`` from the dense state's distribution."""
        for y in valid_bases(n):
            inst = PeriodInstance(n, y)
            p, steps = amplified_distribution(inst)
            state, dense_steps, tau = dense_amplified_state(inst)
            assert (steps, inst.search_sizes.n_marked) == (dense_steps, tau)
            dense_p = state.probabilities()
            dense_p /= dense_p.sum()
            assert np.max(np.abs(p - dense_p)) < 1e-15

            def choice_readouts(rng, samples):
                return rng.choice(dense_p.size, samples, p=dense_p).tolist()

            for seed in range(5):
                assert grover_period(inst, np.random.default_rng(seed)) == \
                    reference_grover_period(inst, np.random.default_rng(seed),
                                            dense_steps, choice_readouts)


def measured_grover_period(inst, rng, samples, budget):
    """grover_period with each readout a measure_register collapse of the
    statevector loop's amplified state: the reference for its draws from
    the two-amplitude distribution."""
    state, steps, _ = dense_amplified_state(inst)

    def measured_readouts(rng, samples):
        return [measure_register(state, 0, rng)[0] for _ in range(samples)]

    return reference_grover_period(inst, rng, steps, measured_readouts, samples, budget)


def closed_form_readouts(inst, uniforms):
    """grover_period's readouts of the amplified register for these uniforms."""
    search = inst.search_sizes
    k, l = recursion_trajectory(search, optimal_iterations(search))[-1]
    return _amplified_readouts(inst, k, l, list(uniforms))


def reference_cdf(inst):
    """The normalised CDF of the q-long reference distribution, which
    ``choice`` draws from by ``searchsorted(side="right")``."""
    p, _ = amplified_distribution(inst)
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf


# Uniforms j / 4099, none dyadic but 0, and the largest that ``random`` can
# return.  q is a power of two, so an amplified CDF can hold exactly dyadic
# boundaries; a uniform equal to one is placed by the rounding of each side's
# sums (see test_dyadic_ties_differ_only_on_a_boundary).
GRID = np.append(np.arange(4099) / 4099, np.nextafter(1.0, 0.0))


class TestAmplifiedReadouts:
    """The closed-form inverse of the amplified register's CDF against
    ``searchsorted`` on the q-long reference's cumulative sums."""

    @pytest.mark.parametrize("n", [n for n in range(3, 51) if n & (n - 1)])
    def test_grid_readouts_are_choices(self, n):
        for y in valid_bases(n):
            inst = PeriodInstance(n, y)
            assert (closed_form_readouts(inst, GRID.tolist())
                    == reference_cdf(inst).searchsorted(GRID, side="right").tolist())

    @settings(max_examples=60, deadline=None)
    @given(valid_instances(255), st.integers(0, 2**64 - 1))
    def test_readouts_are_choices_up_to_q_2_16(self, case, seed):
        inst = PeriodInstance(*case)
        assert inst.register_size <= 1 << 16
        uniforms = np.concatenate((GRID, np.random.default_rng(seed).random(1000)))
        assert (closed_form_readouts(inst, uniforms.tolist())
                == reference_cdf(inst).searchsorted(uniforms, side="right").tolist())

    def test_exact_landing(self):
        # q = 256, r = 4: theta = pi/6, and one step puts all the mass on
        # the progression, l = 0.0 exactly
        inst = PeriodInstance(15, 2)
        search = inst.search_sizes
        k, l = recursion_trajectory(search, optimal_iterations(search))[-1]
        assert l == 0.0 and k > 0.0
        readouts = closed_form_readouts(inst, GRID.tolist())
        assert readouts == reference_cdf(inst).searchsorted(GRID, side="right").tolist()
        assert all(readout % 4 == 1 for readout in readouts)
        assert readouts[0] == 1 and readouts[-1] == 253

    def test_dyadic_ties_differ_only_on_a_boundary(self):
        """On the dyadic grid (j + 1/2) / 4096 some uniforms equal a CDF
        boundary in exact arithmetic.  The two sides may place such a uniform
        on either side of it, and nowhere else."""
        uniforms = (np.arange(4096) + 0.5) / 4096
        for n in (n for n in range(3, 51) if n & (n - 1)):
            for y in valid_bases(n):
                inst = PeriodInstance(n, y)
                cdf = reference_cdf(inst)
                got = np.array(closed_form_readouts(inst, uniforms.tolist()))
                expected = cdf.searchsorted(uniforms, side="right")
                differ = np.flatnonzero(got != expected)
                boundary = cdf[np.minimum(got, expected)[differ]]
                assert np.all(np.abs(uniforms[differ] - boundary) <= 1e-15), (n, y)

    def test_marked_frequency_at_q_2_24(self):
        # q = 2^24: the readouts on the progression a = 1 (mod r) occur at
        # the marked mass M k^2, within 4 sigma over 10^5 draws
        inst = PeriodInstance(4087, 3)
        assert inst.register_size == 1 << 24
        search = inst.search_sizes
        k, l = recursion_trajectory(search, optimal_iterations(search))[-1]
        mass = search.n_marked * k * k
        draws = 10**5
        readouts = closed_form_readouts(inst, np.random.default_rng(5).random(draws))
        r = inst.orbit.size
        on_progression = sum(readout % r == 1 for readout in readouts)
        sigma = math.sqrt(draws * mass * (1 - mass))
        assert abs(on_progression - draws * mass) <= 4 * sigma + 1e-9
        assert 0 <= min(readouts) and max(readouts) < inst.register_size


class TestBornDrawReadouts:
    """Readouts drawn straight from |amps|^2 against measure_register
    readouts, over every valid (N, y) with N <= 50 and seeds 0-4; the
    one-round pairs also cover failed rounds."""

    @pytest.mark.parametrize("n", [n for n in range(3, 51) if n & (n - 1)])
    def test_same_result_and_counters(self, n):
        for y in valid_bases(n):
            inst = PeriodInstance(n, y)
            for seed in range(5):
                for samples, rounds in ((3, 20), (2, 1)):
                    drawn = grover_period(inst, np.random.default_rng(seed),
                                          samples=samples, budget=rounds)
                    assert drawn == measured_grover_period(
                        inst, np.random.default_rng(seed), samples, rounds)


class TestReadoutDrawIdentity:
    """``Generator.choice`` with k outcomes makes the draws of k single
    calls and leaves the generator in the same state; grover_period draws
    each round's readouts with one call on this identity.  Both period
    finders draw with choice's own steps, from a CDF built in place."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1e-9, 0.5]) | st.floats(0.0, 1.0),
                    min_size=1, max_size=40).filter(lambda w: sum(w) > 0),
           st.sampled_from([None, 2, 3, 4, 5, 6, 7, 8]), st.integers(0, 2**64 - 1))
    def test_cdf_draw_is_choice(self, weights, size, seed):
        """One scalar draw per readout from the undivided sums makes
        choice's draws, for one readout and, by the identity below, for
        ``size`` readouts in one call."""
        p = np.array(weights) / sum(weights)
        by_cdf, by_choice = np.random.default_rng(seed), np.random.default_rng(seed)
        sums = period._readout_cdf(p.copy())
        drawn = [period._draw(sums, by_cdf) for _ in range(size or 1)]
        expected = by_choice.choice(p.size, size, p=p)
        assert drawn == np.atleast_1d(expected).tolist()
        assert all(type(index) is int for index in drawn)
        assert by_cdf.bit_generator.state == by_choice.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1e-9, 0.5]) | st.floats(0.0, 1.0),
                    min_size=1, max_size=40).filter(lambda w: sum(w) > 0),
           st.integers(2, 8), st.integers(0, 2**64 - 1))
    def test_one_call_draws_as_single_calls(self, weights, k, seed):
        p = np.array(weights) / sum(weights)
        batched, single = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = batched.choice(p.size, k, p=p).tolist()
        assert drawn == [int(single.choice(p.size, p=p)) for _ in range(k)]
        assert batched.bit_generator.state == single.bit_generator.state


def brute_prime_power_base(n):
    """The prime p with n = p^e, e >= 2, by trial division; else None."""
    if n < 4:
        return None
    p = next(d for d in itertools.count(2) if n % d == 0 or d * d > n)
    if n % p:
        return None  # n is prime
    while n % p == 0:
        n //= p
    return p if n == 1 else None


class TestFactor:
    def test_n15_both_methods(self):
        for method in (SHOR, GROVER_ADIABATIC):
            result = factor(15, method, np.random.default_rng(7))
            assert result.succeeded and result.factors == (3, 5)

    def test_n21(self):
        result = factor(21, SHOR, np.random.default_rng(2))
        assert result.factors == (3, 7)

    def test_n33(self):
        result = factor(33, GROVER_ADIABATIC, np.random.default_rng(4))
        assert result.factors == (3, 11)

    def test_factors_multiply_back(self):
        for n in FACTORABLE:
            result = factor(n, SHOR, np.random.default_rng(n))
            p, q = result.factors
            assert p * q == n and p > 1 and q > 1

    def test_classical_routes(self):
        even = factor(8, SHOR, np.random.default_rng(0))
        assert even.classical_route == "even" and even.factors == (2, 4)
        power = factor(9, SHOR, np.random.default_rng(0))
        assert power.classical_route == "prime-power" and power.factors == (3, 3)
        prime = factor(17, SHOR, np.random.default_rng(0))
        assert prime.classical_route == "prime" and not prime.succeeded

    def test_classify(self):
        assert classify_modulus(15) == "ok"
        assert classify_modulus(27) == "prime-power"
        assert classify_modulus(8) == "even"
        assert classify_modulus(13) == "prime"

    def test_prime_power_base_is_the_prime(self):
        assert _prime_power_base(81) == 3
        assert _prime_power_base(729) == 3
        assert _prime_power_base(7**500) == 7
        assert _prime_power_base(3 * 7**500) is None
        assert _prime_power_base(225) is None  # 15^2 is no prime power
        assert factor(81, SHOR, np.random.default_rng(0)).factors == (3, 27)

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 2 * 10**5 - 1))
    def test_prime_power_base_matches_trial_division(self, n):
        assert _prime_power_base(n) == brute_prime_power_base(n)

    def test_prime_power_base_below_2e5(self):
        powers = {}
        for p in range(2, 448):
            if all(p % d for d in range(2, p)):
                power = p * p
                while power < 2 * 10**5:
                    powers[power] = p
                    power *= p
        assert {n: p for n in range(2 * 10**5)
                if (p := _prime_power_base(n)) is not None} == powers

    @pytest.mark.parametrize("n,base", [
        (3 * 7**5000, None), (3**5000, 3), (2**64, 2), (41**3, 41), (41**3 * 43, None),
        (9, 3), (3, None)])
    def test_witness_factor_takes_no_root(self, monkeypatch, n, base):
        def refuse(*args):
            raise AssertionError("integer root taken")
        monkeypatch.setattr(period, "_integer_root", refuse)
        assert _prime_power_base(n) == base

    def test_huge_multiple_of_a_witness_is_classified_at_once(self):
        # 14 039 bits: a Newton root per prime exponent took 2.6 s
        start = time.perf_counter()
        assert classify_modulus(3 * 7**5000) == "ok"
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n,kind", [
        (43**3000, "prime-power"), (47**300 * 53, "ok"), (2**127 - 1, "prime")],
        ids=["43^3000", "47^300*53", "2^127-1"])
    def test_no_witness_factor_tests_only_the_base(self, monkeypatch, n, kind):
        # 43^3000 (16 280 bits): Miller-Rabin on n itself took 9 s, and on
        # each root as long; with no witness factor the base is at least 43,
        # so n >= 43^k bounds every exponent k by bits // 5
        tested, roots = [], []
        is_prime, integer_root = period._is_prime, period._integer_root

        def recording_is_prime(m):
            tested.append(m)
            return is_prime(m)

        def recording_root(m, k):
            roots.append((m.bit_length(), k))
            return integer_root(m, k)

        monkeypatch.setattr(period, "_is_prime", recording_is_prime)
        monkeypatch.setattr(period, "_integer_root", recording_root)
        assert classify_modulus(n) == kind
        assert all(k <= bits // 5 for bits, k in roots)
        if kind == "prime-power":
            assert max(tested) == 43
        else:
            assert max(tested) == n

    def test_classify_beyond_float_range(self):
        assert classify_modulus(7**500) == "prime-power"
        assert classify_modulus(3 * 7**500) == "ok"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**60), st.integers(2, 12))
    def test_integer_root_is_floor(self, n, k):
        root = _integer_root(n, k)
        assert root**k <= n < (root + 1) ** k

    def test_deterministic(self):
        runs = [factor(35, GROVER_ADIABATIC, np.random.default_rng(12))
                for _ in range(2)]
        assert runs[0] == runs[1]


class TestCompareMethods:
    def test_n15_report(self):
        report = compare_methods(PeriodInstance(15, 2), seed=7)
        shor = report.methods[SHOR]
        grover = report.methods[GROVER_ADIABATIC]
        assert shor.period == 4 and grover.period == 4
        projective = report.to_dict()["methods"][SHOR]["projective_measurements"]
        assert projective >= 2 * shor.attempts
        assert grover.measurements == 3 * grover.attempts
        fisher = np.array(report.fisher_values)
        assert np.max(np.abs(fisher - 4.0)) < 1e-3

    def test_schema_validation(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            resources.files("qgeodesic")
            .joinpath("schemas/comparison_report.schema.json")
            .read_text())
        report = compare_methods(PeriodInstance(21, 2), seed=5)
        jsonschema.validate(report.to_dict(), schema)
