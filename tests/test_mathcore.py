import math

import numpy as np
import pytest

from diqkd.mathcore import (
    Distribution3,
    LogNumber,
    binary_entropy,
    binomial_box,
    binomial_tail,
    chsh_to_winprob,
    golden_min,
    kl_divergence3,
    rel_entropy_binary,
    winprob_to_chsh,
)
from diqkd.mathcore import _last_true

from oracles import binomial_box_bisect, binomial_cdf, log2_binomial_tail


class TestLogNumber:
    def test_roundtrip_tiny(self):
        x = LogNumber.from_log10(-400.0)
        assert x.log10 == pytest.approx(-400.0, rel=1e-14)
        assert not x.is_zero
        assert x.value == 0.0  # underflows as a plain float, by design

    def test_exact_zero(self):
        z = LogNumber.zero()
        assert z.is_zero
        assert z.value == 0.0
        assert (z * LogNumber.from_value(0.5)).is_zero

    def test_multiplication_is_log_addition(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = rng.uniform(1e-300, 1.0, 2)
            prod = LogNumber.from_value(a) * LogNumber.from_value(b)
            expect = math.log2(a) + math.log2(b)
            assert prod.log2_value == pytest.approx(expect, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LogNumber.from_value(-1.0)


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


class TestKlDivergence3:
    def test_equal_is_zero(self):
        d = Distribution3(0.1, 0.2, 0.7)
        assert kl_divergence3(d, d) == 0.0

    def test_point_mass(self):
        q = Distribution3(1.0, 0.0, 0.0)
        p = Distribution3(0.5, 0.25, 0.25)
        assert kl_divergence3(q, p) == pytest.approx(1.0)

    def test_frozen_value(self):
        q = Distribution3(0.2, 0.3, 0.5)
        p = Distribution3(0.1, 0.3, 0.6)
        assert kl_divergence3(q, p) == pytest.approx(0.06848279708310312, abs=1e-12)

    def test_support_violation(self):
        q = Distribution3(0.5, 0.5, 0.0)
        p = Distribution3(1.0, 0.0, 0.0)
        assert kl_divergence3(q, p) == math.inf

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a = rng.dirichlet([1.0, 1.0, 1.0])
            b = rng.dirichlet([1.0, 1.0, 1.0])
            q = Distribution3.from_array(a / a.sum())
            p = Distribution3.from_array(b / b.sum())
            d = kl_divergence3(q, p)
            assert d >= -1e-14
            assert kl_divergence3(q, q) == 0.0

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            Distribution3(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            Distribution3(-0.1, 0.6, 0.5)


class TestBinomialTail:
    def test_single_trial(self):
        assert binomial_tail(1, 1, 0.75).value == pytest.approx(0.75)

    def test_two_trials(self):
        assert binomial_tail(2, 2, 0.75).value == pytest.approx(0.5625)

    def test_k_zero_is_one(self):
        for n in (1, 10, 1000):
            assert binomial_tail(n, 0, 0.3).log2_value == 0.0

    def test_k_n_exact_in_log_space(self):
        for n, p in ((10, 0.25), (500, 0.75), (4000, 0.9)):
            assert binomial_tail(n, n, p).log2_value == n * math.log2(p)

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
        assert t.log10 == pytest.approx(-292.8799767, abs=1e-3)

    def test_against_decimal_oracle(self):
        rng = np.random.default_rng(2026)
        for _ in range(100):
            n = int(rng.integers(1, 10_001))
            k = int(rng.integers(0, n + 1))
            p = float(rng.uniform(0.05, 0.95))
            got = binomial_tail(n, k, p).log2_value
            want = log2_binomial_tail(n, k, p)
            if want == 0.0:
                assert got == 0.0
            else:
                # absolute floor covers tails within 1e-9/ln2 of exactly 1,
                # where a relative-in-log comparison is void in any float
                # representation; everywhere else the relative bound binds
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            binomial_tail(10, 11, 0.5)
        with pytest.raises(ValueError):
            binomial_tail(10, -1, 0.5)


class TestBinomialBox:
    def test_no_constraint_level(self):
        assert binomial_box(100, 0.3, 1.0) == (0.0, 0.0)

    def test_single_trial_enumeration(self):
        # freq in {0, 1}; P[freq = 0] = 0.5 > 0.4, so the lower deviation
        # must push the threshold all the way to 0.
        dlow, dupp = binomial_box(1, 0.5, 0.4)
        assert dlow == pytest.approx(0.5)
        assert dupp == pytest.approx(0.5)

    def test_defining_inequalities_via_binomial_tail(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 2000))
            p = float(rng.uniform(0.01, 0.99))
            eps = float(rng.uniform(1e-6, 0.5))
            dlow, dupp = binomial_box(n, p, eps)
            # lower tail: P[X < n(p - dlow)] <= eps, re-checked in log space
            j = math.ceil(n * (p - dlow) - 1e-9) - 1
            if j >= 0:
                low_tail = 1.0 - binomial_tail(n, j + 1, p).value
                assert low_tail <= eps + 1e-12
            # upper tail: P[X > n(p + dupp)] <= eps
            j = math.floor(n * (p + dupp) + 1e-9)
            if j < n:
                assert binomial_tail(n, j + 1, p).value <= eps + 1e-12

    def test_minimality_small_n_exhaustive(self):
        # exhaustive check against direct enumeration for small n
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            p = float(rng.uniform(0.1, 0.9))
            eps = float(rng.uniform(0.001, 0.9))
            dlow, dupp = binomial_box(n, p, eps)
            pmf = [math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n + 1)]

            def low_ok(d):
                return sum(pmf[i] for i in range(n + 1) if i / n < p - d - 1e-12) <= eps

            def upp_ok(d):
                return sum(pmf[i] for i in range(n + 1) if i / n > p + d + 1e-12) <= eps

            assert low_ok(dlow) and upp_ok(dupp)
            step = 1.0 / n
            if dlow > 0:
                assert not low_ok(max(dlow - step, dlow * 0.5) if dlow - step < 0 else dlow - step)
            if dupp > 0:
                assert not upp_ok(max(dupp - step, dupp * 0.5) if dupp - step < 0 else dupp - step)

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
            (10**9, 0.5, 1e-300),  # scipy's isf is far off here; the search must still be short
            (100, 0.3, 1.0),
            (100, 0.3, 2.5),
        ],
    )
    def test_equals_bisection_at_edges(self, n, p, eps):
        assert binomial_box(n, p, eps) == binomial_box_bisect(n, p, eps)

    def test_boundary_search_from_any_guess(self):
        # the galloping search behind the box, on predicates with a known boundary
        for lo, hi in ((0, 0), (-1, 5), (0, 1000), (-1, 10**9)):
            span = hi - lo + 1
            for k in sorted(k for k in {lo, lo + 1, (lo + hi) // 2, hi - 1, hi} if lo <= k <= hi):
                for guess in (lo, hi, k, k - 1, k + 1, lo - 7.0, hi + 1e12, 0.37 * hi, math.nan):
                    calls = []

                    def ok(j):
                        assert lo <= j <= hi
                        calls.append(j)
                        return j <= k

                    assert _last_true(ok, guess, lo, hi) == k, (lo, hi, k, guess)
                    assert len(calls) <= 2 * math.log2(span) + 3

    def test_paper_scale_against_cdf_oracle(self):
        n, p, eps = 10_000, 0.0338 * 0.8265, 0.01 / 6
        dlow, dupp = binomial_box(n, p, eps)
        jlow = round(n * (p - dlow))
        assert binomial_cdf(n, jlow - 1, p) <= eps
        assert binomial_cdf(n, jlow, p) > eps
        jupp = round(n * (p + dupp))
        assert 1.0 - binomial_cdf(n, jupp, p) <= eps
        assert 1.0 - binomial_cdf(n, jupp - 1, p) > eps

    def test_scaling_with_n(self):
        # deviations shrink like 1/sqrt(n)
        p, eps = 0.1, 0.01
        for n in (10_000, 100_000):
            d1, _ = binomial_box(n, p, eps)
            d4, _ = binomial_box(4 * n, p, eps)
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
            assert winprob_to_chsh(chsh_to_winprob(s)) == pytest.approx(s, abs=1e-12)

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
