"""Number theory, register construction, both period finders, factoring."""

import json
import math
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
from qgeodesic import period
from qgeodesic.period import (
    _amplified_state,
    _integer_root,
    _modexp_table,
    _period_from_samples,
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
        with pytest.raises(ValueError):
            PeriodInstance(15, 2, register_size=300)  # not a power of two
        with pytest.raises(ValueError):
            PeriodInstance(15, 2, register_size=128)  # below N^2


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


class TestModexpTable:
    @pytest.mark.parametrize("n,y", SWEEP + [(91, 3), (143, 2), (221, 7), (323, 5)])
    def test_matches_builtin_pow(self, n, y):
        inst = PeriodInstance(n, y)
        table = _modexp_table(inst)
        assert table.dtype == np.int64
        assert table.tolist() == [pow(y, a, n) for a in range(inst.register_size)]


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

    def test_needs_q_amplitudes_not_q_times_n(self):
        inst = PeriodInstance(15, 2)
        q = inst.register_size
        l, c = shor_sample(inst, np.random.default_rng(0), memory_cap=q)
        assert l in (1, 2, 4, 8) and c % 64 == 0
        with pytest.raises(ResourceLimitError):
            shor_sample(inst, np.random.default_rng(0), memory_cap=q - 1)
        with pytest.raises(ResourceLimitError):
            build_register(inst, memory_cap=q)


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
        assert _period_from_samples(2, 15, [13, 101, 37]) == 4
        assert _period_from_samples(2, 15, [13, 13, 13]) is None


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
        state, steps, tau = _amplified_state(inst, 1 << 26)
        assert steps == 1 and tau == 64
        mass = state.probabilities()[marked_arguments(inst)].sum()
        assert abs(mass - 1.0) < 1e-12

    def test_n21_amplified_mass_matches_closed_form(self):
        inst = PeriodInstance(21, 2)
        state, steps, tau = _amplified_state(inst, 1 << 26)
        q = inst.register_size
        theta = np.arcsin(np.sqrt(tau / q))
        expected = np.sin((2 * steps + 1) * theta) ** 2
        mass = state.probabilities()[marked_arguments(inst)].sum()
        assert abs(mass - expected) < 1e-10
        assert mass >= 1 - tau / q

    def test_readouts_lie_on_the_progression(self):
        inst = PeriodInstance(15, 2)
        from qgeodesic import measure_register
        state, _, _ = _amplified_state(inst, 1 << 26)
        rng = np.random.default_rng(21)
        for _ in range(20):
            outcome, _ = measure_register(state, 0, rng)
            assert outcome % 4 == 1

    def test_n21_success_rate_over_200_seeds(self):
        inst = PeriodInstance(21, 2)
        successes = sum(
            grover_period(inst, np.random.default_rng(seed)).period == 6
            for seed in range(200))
        assert successes >= 190

    def test_samples_validation(self):
        with pytest.raises(ValueError):
            grover_period(PeriodInstance(15, 2), np.random.default_rng(0), samples=1)

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


def dense_amplified_state(inst, memory_cap):
    """The statevector search loop over the whole argument register."""
    search = GroverInstance(inst.register_size, frozenset(marked_arguments(inst).tolist()))
    steps = optimal_iterations(search)
    state = new_uniform(search.n_items)
    for _ in range(steps):
        state = grover_step(state, search.marked_mask())
    return state, steps, search.n_marked


class TestAmplifiedStateMatchesDense:
    """The two-amplitude amplified state against the statevector loop, over
    every valid (N, y) with N <= 50 and seeds 0-4.  Powers of two have no
    register size strictly inside (N^2, 2 N^2)."""

    @pytest.mark.parametrize("n", [n for n in range(3, 51) if n & (n - 1)])
    def test_seeded_readouts(self, n, monkeypatch):
        for y in valid_bases(n):
            inst = PeriodInstance(n, y)
            state, steps, tau = _amplified_state(inst, 1 << 26)
            reference = dense_amplified_state(inst, 1 << 26)
            assert (steps, tau) == reference[1:]
            assert np.max(np.abs(state.amplitudes - reference[0].amplitudes)) < 1e-15
            for seed in range(5):
                reduced = grover_period(inst, np.random.default_rng(seed))
                with monkeypatch.context() as patch:
                    patch.setattr(period, "_amplified_state", lambda *_: reference)
                    assert grover_period(inst, np.random.default_rng(seed)) == reduced
                fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
                assert [measure_register(state, 0, fast)[0] for _ in range(3)] == \
                    [measure_register(reference[0], 0, slow)[0] for _ in range(3)]


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
        assert shor.projective_measurements >= 2 * shor.attempts
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
