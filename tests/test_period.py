"""Number theory, register construction, both period finders, factoring."""

import functools
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from importlib import resources

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
from qgeodesic.period import (
    PeriodResult,
    _amplified_distribution,
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
    """A copy of the CDF of every readout draw, in order."""
    cdfs = []
    draw = period._draw

    def recording(cdf, rng, size=None):
        cdfs.append(cdf.copy())
        return draw(cdf, rng, size)

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
    @given(valid_instances(400), st.integers(0, 2**16))
    def test_reads_equal_the_tables(self, case, pick):
        n, y = case
        inst = PeriodInstance(n, y)
        assert inst.orbit.size == order_bruteforce(y, n)
        assert period._value_marginal(inst).tobytes() == table_marginal(inst).tobytes()
        value = int(inst.orbit[pick % inst.orbit.size])
        assert (period._projected_column(inst, value).tobytes()
                == table_column(inst, value).tobytes())
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
        """The in-place transform and cumulative sum give, bit for bit, the
        CDF of the normalised |c|^2 of qft on the projected column."""
        inst = PeriodInstance(n, y)
        for seed in range(3):
            drawn_cdfs.clear()
            l, _ = shor_sample(inst, np.random.default_rng(seed))
            expected = np.abs(qft(StateVector(table_column(inst, l))).amplitudes) ** 2
            cdf = np.cumsum(expected / expected.sum())
            cdf /= cdf[-1]
            assert len(drawn_cdfs) == 2  # the function value, then the frequency
            assert drawn_cdfs[1].tobytes() == cdf.tobytes()

    def test_peak_is_the_column_and_its_distribution(self):
        # q = 2^20: the charged register is q complex amplitudes (16 MiB).
        # One call transforms the column in place and holds the q-long
        # float distribution beside it, whose CDF it builds in place.
        inst = PeriodInstance(1023, 1022)
        assert inst.register_size == 1 << 20
        tracemalloc.start()
        try:
            shor_sample(inst, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * (1 << 20) * 16, f"peak {peak / 2**20:.1f} MiB"

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
        ifft = np.fft.ifft
        monkeypatch.setattr(np.fft, "ifft", lambda a, **kwargs: 2 * ifft(a, **kwargs))
        with pytest.raises(ValueError, match="state is not normalized"):
            shor_sample(PeriodInstance(15, 2), np.random.default_rng(0))


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
        p, _ = _amplified_distribution(inst, 1 << 26)
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

        found = grover_period(inst, Scripted([13, 101, 37]), samples=3, max_rounds=1)
        assert found.succeeded and found.period == 4 and found.measurements == 3
        same = grover_period(inst, Scripted([13, 13, 13]), samples=3, max_rounds=1)
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
        p, steps = _amplified_distribution(inst, 1 << 26)
        assert steps == 1 and inst.search.n_marked == 64
        assert abs(p[marked_arguments(inst)].sum() - 1.0) < 1e-12

    def test_n21_amplified_mass_matches_closed_form(self):
        inst = PeriodInstance(21, 2)
        p, steps = _amplified_distribution(inst, 1 << 26)
        q, tau = inst.register_size, inst.search.n_marked
        theta = np.arcsin(np.sqrt(tau / q))
        expected = np.sin((2 * steps + 1) * theta) ** 2
        mass = p[marked_arguments(inst)].sum()
        assert abs(mass - expected) < 1e-10
        assert mass >= 1 - tau / q

    def test_readouts_lie_on_the_progression(self):
        p, _ = _amplified_distribution(PeriodInstance(15, 2), 1 << 26)
        outcomes = np.random.default_rng(21).choice(p.size, size=20, p=p)
        assert np.all(outcomes % 4 == 1)

    def test_search_is_built_once_from_the_mask(self):
        inst = PeriodInstance(35, 4)
        search = inst.search
        assert inst.search is search
        assert search.n_items == inst.register_size
        assert np.array_equal(search.marked, marked_arguments(inst))
        assert not search.marked.flags.writeable

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
                builds.clear()
                result = grover_period(PeriodInstance(n, y), rng, samples=samples)
                assert rng.sizes == [samples] * result.attempts
                assert len(builds) == 1  # one CDF for every round
                rounds.append(result.attempts)
        assert max(rounds) > 1

    def test_deterministic(self):
        runs = [grover_period(PeriodInstance(35, 2), np.random.default_rng(3))
                for _ in range(2)]
        assert runs[0] == runs[1]


class TestBothMethodsAgreeWithBruteForce:
    def test_n15_all_bases(self):
        for y in valid_bases(15):
            expected = order_bruteforce(y, 15)
            inst = PeriodInstance(15, y)
            assert shor_period(inst, np.random.default_rng(y)).period == expected
            assert grover_period(inst, np.random.default_rng(y)).period == expected


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
    def test_seeded_readouts(self, n, monkeypatch):
        for y in valid_bases(n):
            inst = PeriodInstance(n, y)
            p, steps = _amplified_distribution(inst, 1 << 26)
            state, dense_steps, tau = dense_amplified_state(inst)
            assert (steps, inst.search.n_marked) == (dense_steps, tau)
            dense_p = state.probabilities()
            dense_p /= dense_p.sum()
            assert np.max(np.abs(p - dense_p)) < 1e-15
            for seed in range(5):
                reduced = grover_period(inst, np.random.default_rng(seed))
                with monkeypatch.context() as patch:
                    # a copy each call: grover_period builds its CDF in place
                    patch.setattr(period, "_amplified_distribution",
                                  lambda *_: (dense_p.copy(), dense_steps))
                    assert grover_period(inst, np.random.default_rng(seed)) == reduced


def measured_grover_period(inst, rng, samples, max_rounds):
    """grover_period with each readout a measure_register collapse of the
    statevector loop's amplified state: the reference for its draws from
    the two-amplitude distribution."""
    state, steps, _ = dense_amplified_state(inst)
    oracle_calls = measurements = 0
    for round_index in range(1, max_rounds + 1):
        outcomes = []
        for _ in range(samples):
            outcomes.append(measure_register(state, 0, rng)[0])
            oracle_calls += steps
            measurements += 1
        g = math.gcd(*(outcome - outcomes[0] for outcome in outcomes))
        found = _verified_minimal_period(inst.base, inst.modulus, g) if g else None
        if found is not None:
            return PeriodResult(
                GROVER_ADIABATIC, found, oracle_calls, measurements, round_index, True)
    return PeriodResult(
        GROVER_ADIABATIC, None, oracle_calls, measurements, max_rounds, False)


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
                                          samples=samples, max_rounds=rounds)
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
        p = np.array(weights) / sum(weights)
        by_cdf, by_choice = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = period._draw(period._readout_cdf(p.copy()), by_cdf, size)
        expected = by_choice.choice(p.size, size, p=p)
        assert np.asarray(drawn).tolist() == np.asarray(expected).tolist()
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
