import math
import tracemalloc

import numpy as np
import pytest

from diqkd import cli, mathcore, protocol
from diqkd.mathcore import (
    binary_entropy,
    binomial_box,
    binomial_tail,
    chsh_to_winprob,
    golden_min,
    rel_entropy_binary,
)
from diqkd.mathcore import _last_true

from oracles import (
    binomial_box_bisect,
    binomial_cdf,
    log10_tail_three_quarters,
    log2_binomial_tail,
    log2_binomial_tail_mp,
)


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_degenerate(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_frozen_value(self):
        # direct evaluation: -p log2 p - (1-p) log2(1-p) at p = 0.0285
        assert binary_entropy(0.0285) == pytest.approx(0.18681273396222964, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for p in rng.uniform(0.0, 1.0, 1000):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestRelEntropyBinary:
    def test_identical_is_zero(self):
        assert rel_entropy_binary(0.75, 0.75) == 0.0

    def test_one_vs_half(self):
        assert rel_entropy_binary(1.0, 0.5) == pytest.approx(1.0)

    def test_frozen_value(self):
        assert rel_entropy_binary(0.9, 0.75) == pytest.approx(0.10453815576167819, abs=1e-12)

    def test_infinite_sentinel(self):
        assert rel_entropy_binary(0.5, 0.0) == math.inf
        assert rel_entropy_binary(0.5, 1.0) == math.inf
        assert rel_entropy_binary(0.0, 0.0) == 0.0
        assert rel_entropy_binary(1.0, 1.0) == 0.0


class TestBinomialTail:
    def test_single_trial(self):
        assert 2.0 ** binomial_tail(1, 1, 0.75) == pytest.approx(0.75)

    def test_two_trials(self):
        assert 2.0 ** binomial_tail(2, 2, 0.75) == pytest.approx(0.5625)

    def test_k_zero_is_one(self):
        for n in (1, 10, 1000):
            assert binomial_tail(n, 0, 0.3) == 0.0

    def test_exact_zero(self):
        # an impossible tail is exactly -inf in log2, a certain one exactly 0
        assert binomial_tail(10, 1, 0.0) == -math.inf
        assert binomial_tail(10, 0, 0.0) == 0.0
        assert binomial_tail(10, 10, 1.0) == 0.0

    def test_k_n_exact_in_log_space(self):
        for n, p in ((10, 0.25), (500, 0.75), (4000, 0.9)):
            assert binomial_tail(n, n, p) == n * math.log2(p)

    def test_tail_below_double_range(self):
        # about 1e-1197, far below the smallest positive double, yet finite
        # in log2 and accurate to its last digits
        got, want = binomial_tail(10_000, 9_000, 0.5), log2_binomial_tail(10_000, 9_000, 0.5)
        assert 2.0**got == 0.0
        assert got == pytest.approx(want, rel=1e-14)
        # a subnormal p0, where x/m in the saddle-point form overflows a double
        p = 5e-324
        assert binomial_tail(10, 3, p) == pytest.approx(math.log2(120) + 3 * math.log2(p), rel=1e-14)

    def test_monotone_in_k(self):
        n, p = 200, 0.4
        prev = binomial_tail(n, 0, p)
        for k in range(1, n + 1):
            cur = binomial_tail(n, k, p)
            assert cur <= prev
            prev = cur

    def test_paper_scale_pvalue(self):
        # N = 39645, k = round(N * (1/2 + 2.612/8)) = 32767: the exact tail
        # sits near 1e-293 (frozen from the Decimal oracle below).
        t = binomial_tail(39645, 32767, 0.75)
        assert t * math.log10(2.0) == pytest.approx(-292.8799767, abs=1e-3)

    def test_against_decimal_oracle(self):
        rng = np.random.default_rng(2026)
        for _ in range(100):
            n = int(rng.integers(1, 10_001))
            k = int(rng.integers(0, n + 1))
            p = float(rng.uniform(0.05, 0.95))
            got = binomial_tail(n, k, p)
            want = log2_binomial_tail(n, k, p)
            if want == 0.0:
                assert got == 0.0
            else:
                # the oracle stops summing at terms 1e-45 of its total, so where
                # the tail is that close to 1 its log is off by up to ~1e-44;
                # the absolute floor covers that, the relative bound binds elsewhere
                assert got == pytest.approx(want, rel=1e-12, abs=1e-40)

    @pytest.mark.parametrize("n, k, p", [(10_000, 2, 1e-4), (1000, 3, 1e-3), (10**6, 1, 1e-6)])
    def test_skewed_tail_past_the_first_window(self, n, k, p):
        # at a mean near 1 the upper tail is far heavier than a normal one, so
        # the first window stops short and the geometric bound must widen it
        assert binomial_tail(n, k, p) == pytest.approx(log2_binomial_tail(n, k, p), rel=1e-12)

    @pytest.mark.parametrize("p", [0.3, 0.7, 1e-3])
    def test_large_n_against_mpmath(self, p):
        # at n = 1e8 neither n p nor 1 - p is a double, and an error of one
        # rounding in either would move ln P by about (k - n p) 1e-16 ~ 1e-11
        n = 10**8
        k = round(n * p + 30.0 * math.sqrt(n * p * (1.0 - p)))
        assert abs(binomial_tail(n, k, p) - log2_binomial_tail_mp(n, k, p)) <= 1e-12

    def test_shipped_pvalues_against_exact_integer_sums(self):
        # at p = 3/4 the tail is sum C(n, i) 3^i / 4^n, exact in integers
        for row in cli.pvalue_table():
            want = log10_tail_three_quarters(row["n_trials"], row["k"])
            assert abs(row["log10_p"] - want) <= 1e-12, row

    def test_memory_stays_in_a_window_at_large_n(self):
        # the summed window is O(sigma) terms, not O(n): at n = 1e9 an O(n)
        # tail would allocate gigabytes
        n, p = 10**9, 0.5
        k = round(n * p + 40.0 * math.sqrt(n * p * (1.0 - p)))
        tracemalloc.start()
        try:
            got = binomial_tail(n, k, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert -1200.0 < got < -1100.0
        assert peak <= 16 * 2**20

    def test_domain(self):
        with pytest.raises(ValueError):
            binomial_tail(10, 11, 0.5)
        with pytest.raises(ValueError):
            binomial_tail(10, -1, 0.5)


class TestBinomialBox:
    def test_no_constraint_level(self):
        # every threshold meets a level of 1: the largest lower, the smallest upper
        assert binomial_box(100, 0.3, 1.0) == (100, 0)

    def test_single_trial_enumeration(self):
        # X in {0, 1}; P[X = 0] = P[X = 1] = 0.5 > 0.4, so the thresholds
        # must open all the way to 0 and 1
        assert binomial_box(1, 0.5, 0.4) == (0, 1)

    def test_defining_inequalities_via_binomial_tail(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 2000))
            p = float(rng.uniform(0.01, 0.99))
            eps = float(rng.uniform(1e-6, 0.5))
            low, upp = binomial_box(n, p, eps)
            # lower tail: P[X < low] <= eps, re-checked in log space
            if low > 0:
                assert 1.0 - 2.0 ** binomial_tail(n, low, p) <= eps + 1e-12
            # upper tail: P[X > upp] <= eps
            if upp < n:
                assert 2.0 ** binomial_tail(n, upp + 1, p) <= eps + 1e-12

    def test_minimality_small_n_exhaustive(self):
        # exhaustive check against direct enumeration for small n
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            p = float(rng.uniform(0.1, 0.9))
            eps = float(rng.uniform(0.001, 0.9))
            low, upp = binomial_box(n, p, eps)
            pmf = [math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n + 1)]

            def below(j):  # P[X < j]
                return sum(pmf[:j])

            def above(j):  # P[X > j]
                return sum(pmf[j + 1 :])

            assert below(low) <= eps and above(upp) <= eps
            # one count further in, a tail exceeds eps
            if low < n:
                assert below(low + 1) > eps
            if upp > 0:
                assert above(upp - 1) > eps

    def test_equals_bisection_on_random_cases(self):
        # the quantile-seeded search must land where a bisection over [0, n] does
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(10 ** rng.uniform(2, 9))
            p = float(rng.uniform(0.0, 1.0))
            eps = float(10 ** rng.uniform(-12, -1))
            assert binomial_box(n, p, eps) == binomial_box_bisect(n, p, eps), (n, p, eps)

    @pytest.mark.parametrize(
        "n, p, eps",
        [
            (1_208_000, 3e-7, 1e-10),
            (1_208_000, 1 - 3e-7, 1e-10),
            (10**9, 1e-9, 1e-12),
            (10**9, 1 - 1e-9, 1e-12),
            (1, 0.5, 0.4),
            (1, 1e-7, 0.1),
            (1, 1 - 1e-7, 0.1),
            (10**9, 0.5, 1e-300),  # thresholds 37 sigma out, near the bottom of the double range
            (100, 0.3, 1.0),
            (100, 0.3, 2.5),
            # bdtrc's tail is 2e-6 relative low here and would end the upper
            # side one count early, where the exact tail still exceeds eps
            (491_119_230, 0.4978271325044268, 4.808143456492249e-10),
        ],
    )
    def test_equals_bisection_at_edges(self, n, p, eps, monkeypatch):
        tail, calls = mathcore._ln_tail, []

        def counted(*args):
            calls.append(args)
            return tail(*args)

        monkeypatch.setattr(mathcore, "_ln_tail", counted)
        assert binomial_box(n, p, eps) == binomial_box_bisect(n, p, eps)
        # each predicate call is one tail; the quantile guesses keep the search short
        assert len(calls) <= 10

    @pytest.mark.parametrize("n", [10_000, 500_000, 1_208_000, 10_000_000])
    def test_equals_bisection_at_pipeline_cells(self, n, monkeypatch):
        # the (n, p, level) triples build_acceptance_set hands over, at the
        # paper point and at the default model's omega
        config = cli.load_config(None, {})
        omegas = (chsh_to_winprob(2.612), cli._model_behavior(config).chsh_win_probability())
        seen = []
        monkeypatch.setattr(protocol, "binomial_box", lambda *args: seen.append(args) or binomial_box(*args))
        for omega in omegas:
            protocol.build_acceptance_set(n, config.gamma_a, config.gamma_b, omega, config.eps_com_at)
        assert len(seen) == 6
        for args in seen:
            assert binomial_box(*args) == binomial_box_bisect(*args), args

    def test_tails_at_the_ends_of_the_range(self):
        # lower and upper thresholds at j = 0, next to the predicates' k = -1
        # end, then the mirror at j = n
        p = 1e-4
        assert binomial_box(10, p, 0.01) == (0, 0) == binomial_box_bisect(10, p, 0.01)
        q = 1.0 - p
        assert binomial_box(10, q, 0.01) == (10, 10) == binomial_box_bisect(10, q, 0.01)
        assert binomial_box(10, 0.0, 0.01) == (0, 0) and binomial_box(10, 1.0, 0.01) == (10, 10)
        # the predicate at the lower end is taken as true whatever it says
        for guess in (-1, 0, 5):
            assert _last_true(lambda j: False, guess, -1, 5) == -1

    def test_boundary_search_from_any_guess(self):
        # the galloping search behind the box, on predicates with a known boundary
        for lo, hi in ((0, 0), (-1, 5), (0, 1000), (-1, 10**9)):
            span = hi - lo + 1
            for k in sorted(k for k in {lo, lo + 1, (lo + hi) // 2, hi - 1, hi} if lo <= k <= hi):
                for guess in (lo, hi, k, k - 1, k + 1, lo - 7.0, hi + 1e12, 0.37 * hi):
                    calls = []

                    def ok(j):
                        assert lo <= j <= hi
                        calls.append(j)
                        return j <= k

                    assert _last_true(ok, guess, lo, hi) == k, (lo, hi, k, guess)
                    assert len(calls) <= 2 * math.log2(span) + 3

    def test_paper_scale_against_cdf_oracle(self):
        n, p, eps = 10_000, 0.0338 * 0.8265, 0.01 / 6
        low, upp = binomial_box(n, p, eps)
        assert binomial_cdf(n, low - 1, p) <= eps
        assert binomial_cdf(n, low, p) > eps
        assert 1.0 - binomial_cdf(n, upp, p) <= eps
        assert 1.0 - binomial_cdf(n, upp - 1, p) > eps

    def test_scaling_with_n(self):
        # frequency deviations shrink like 1/sqrt(n)
        p, eps = 0.1, 0.01
        for n in (10_000, 100_000):
            d1 = p - binomial_box(n, p, eps)[0] / n
            d4 = p - binomial_box(4 * n, p, eps)[0] / (4 * n)
            assert 0.4 <= d4 / d1 <= 0.6


class TestChshWinprob:
    def test_classical_bound(self):
        assert chsh_to_winprob(2.0) == 0.75

    def test_tsirelson(self):
        assert chsh_to_winprob(2 * math.sqrt(2)) == pytest.approx((2 + math.sqrt(2)) / 4)

    def test_paper_value(self):
        assert chsh_to_winprob(2.612) == pytest.approx(0.8265)

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        for s in rng.uniform(-4, 4, 100):
            assert 8.0 * (chsh_to_winprob(s) - 0.5) == pytest.approx(s, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            chsh_to_winprob(4.5)


class TestGoldenMin:
    def test_scalar_bracket_finds_the_minimum(self):
        c, fc, d, fd = golden_min(lambda x: (x - 0.3) ** 2, [0.0], [1.0], 60)
        assert all(v.shape == (1,) and v.dtype == float for v in (c, fc, d, fd))
        assert c[0] == pytest.approx(0.3, abs=1e-9) and d[0] == pytest.approx(0.3, abs=1e-9)

    def test_lockstep_brackets_match_each_bracket_alone(self):
        rng = np.random.default_rng(5)
        lo = rng.uniform(-1.0, 0.0, 9)
        hi = lo + rng.uniform(0.1, 2.0, 9)
        centers = rng.uniform(-1.0, 2.0, 9)
        weights = np.ones(9)
        weights[0] = 0.0  # a flat objective: every comparison ties

        def f_of(center, weight):
            return lambda x: weight * (np.sin(x - center) ** 2 + x / 7.0)

        got = golden_min(f_of(centers, weights), lo, hi, 30)
        for i in range(9):
            one = slice(i, i + 1)  # a 1-element bracket
            alone = golden_min(f_of(centers[one], weights[one]), lo[one], hi[one], 30)
            assert tuple(float(v[i]) for v in got) == tuple(float(v[0]) for v in alone)
