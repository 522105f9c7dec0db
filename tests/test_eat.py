import math

import numpy as np
import pytest

from diqkd.eat import (
    EPS_EC,
    HonestModel,
    asymptotic_rate_nosift,
    asymptotic_rate_sifted,
    completeness_ea,
    delta_for_completeness,
    eta_inf,
    f_func,
    g_func,
    g_slope,
    gamma_eff,
    key_length_eat,
    leak_ec,
    vartheta,
)
from diqkd.eat import _cut_point, _length_of_split
from diqkd.mathcore import TSIRELSON_WIN
from diqkd.protocol import ProtocolParams
from oracles import delta_for_completeness_200, eat_ell_for_split, eat_eta, eat_eta_opt, eat_key_length_search
from test_renyi import random_cells

PAPER = HonestModel.from_chsh(2.612, 0.0285, 0.26, 0.13)


def protocol_at(n, model, delta):
    """A protocol tested at the model's win probability; the accumulation bound reads no box, so it is open."""
    return ProtocolParams(
        n=n, gamma_a=model.gamma_a, gamma_b=model.gamma_b, omega_exp=model.omega, delta=delta,
        box_lo=(0, 0, 0), box_hi=(n, n, n),
    )


def eat_length(n, model=PAPER):
    """key_length_eat at eps_snd = 1e-5 and the delta meeting a 1e-2 completeness target."""
    delta = delta_for_completeness(n, model.gamma_a, model.gamma_b, model.omega, target=1e-2)
    return key_length_eat(protocol_at(n, model, delta), 1e-5, leak_ec(n, model, 0.005))


class TestGammaEff:
    def test_limits(self):
        assert gamma_eff(0.0, 0.0) == 1.0
        assert gamma_eff(1.0, 1.0) == 1.0

    def test_paper_point(self):
        assert gamma_eff(0.26, 0.13) == pytest.approx(0.7907)


class TestGFunc:
    def test_classical_endpoint(self):
        assert g_func(0.75) == 0.0

    def test_tsirelson_endpoint(self):
        assert g_func(TSIRELSON_WIN) == pytest.approx(1.0)

    def test_paper_point(self):
        assert g_func(0.8265) == pytest.approx(0.5978585628908548, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            g_func(0.7)
        with pytest.raises(ValueError):
            g_func(0.9)

    def test_slope_matches_finite_differences(self):
        step = 1e-6
        for w in np.linspace(0.76, 0.848, 20):
            fd = (g_func(w + step) - g_func(w - step)) / (2 * step)
            assert g_slope(w) == pytest.approx(fd, rel=1e-5)

    def test_slope_positive_and_steepening(self):
        for w in np.linspace(0.76, 0.85, 30):
            assert g_slope(w) > 0.0
        assert g_slope(0.8535) > g_slope(0.83)


class TestFFunc:
    def test_g_branch(self):
        assert f_func(0.80, 0.82) == g_func(0.80)

    def test_continuity_at_cut(self):
        wt = 0.81
        assert f_func(wt, wt) == pytest.approx(g_func(wt))
        assert f_func(wt + 1e-9, wt) == pytest.approx(g_func(wt), abs=1e-7)

    def test_tangent_below_g_above_cut(self):
        wt = 0.80
        for w in np.linspace(wt + 1e-4, 0.8535, 50):
            assert f_func(w, wt) <= g_func(w) + 1e-12

    def test_affine_identity_above_cut(self):
        wt = 0.79
        s = g_slope(wt)
        for w in (0.80, 0.82, 0.85):
            assert f_func(w, wt) == pytest.approx(g_func(wt) + s * (w - wt), abs=1e-14)


class TestEta:
    """The per-round certificate after the penalty, in the oracle's term-by-term form, at the program's cut point.

    The program's own copy of the formula, inside _length_of_split, is
    pinned to the oracle bit for bit by TestSplitSearchMatchesOracle.
    """

    def test_large_n_limit(self):
        w, wt = 0.8265, 0.82
        ge = gamma_eff(0.26, 0.13)
        val = eat_eta(w, wt, 1e-6, 1e-6, 10**18, 0.26, 0.13)
        assert val == pytest.approx(ge * f_func(w, wt), abs=1e-6)

    def test_monotone_in_n(self):
        vals = [eat_eta(0.8265, 0.82, 1e-6, 1e-6, n, 0.26, 0.13) for n in (10**4, 10**6, 10**8)]
        assert vals[0] < vals[1] < vals[2]

    def test_term_by_term_recomputation(self):
        w, wt, eps, eps_e, n = 0.8265, 0.8, 3e-6, 5e-6, 1_208_000
        ge = gamma_eff(0.26, 0.13)
        expect = ge * f_func(w, wt) - (2 / math.sqrt(n)) * (
            math.log2(9) + math.ceil(ge * g_slope(wt))
        ) * math.sqrt(1 - 2 * math.log2(eps * eps_e))
        assert eat_eta(w, wt, eps, eps_e, n, 0.26, 0.13) == pytest.approx(expect, abs=1e-15)

    def test_eta_opt_dominates_feasible_point(self):
        w_in = 0.8259
        assert _cut_point(w_in) >= w_in
        opt = eat_eta(w_in, _cut_point(w_in), 1e-6, 1e-5, 1_208_000, 0.26, 0.13)
        assert opt >= eat_eta(w_in, w_in, 1e-6, 1e-5, 1_208_000, 0.26, 0.13) - 1e-12

    def test_eta_opt_huge_n_uses_exact_branch(self):
        w_in = 0.8259
        assert _cut_point(w_in) == w_in
        val = eat_eta_opt(w_in, 1e-6, 1e-5, 10**14, 0.26, 0.13)
        assert val == eat_eta(w_in, _cut_point(w_in), 1e-6, 1e-5, 10**14, 0.26, 0.13)
        assert val == pytest.approx(gamma_eff(0.26, 0.13) * g_func(w_in), abs=1e-4)
        res = eat_length(10**14)
        delta = delta_for_completeness(10**14, 0.26, 0.13, PAPER.omega, target=1e-2)
        w_tested = PAPER.omega - delta / gamma_eff(0.26, 0.13)
        assert res.pt == w_tested

    def test_g_slope_nondecreasing(self):
        # the fact the closed-form cut point rests on: g is convex
        slopes = [g_slope(w) for w in np.linspace(0.75 + 1e-9, TSIRELSON_WIN - 1e-9, 100_001)]
        assert all(b >= a for a, b in zip(slopes, slopes[1:]))

    @pytest.mark.parametrize("n", [10**4, 1_208_000, 10**9])
    def test_eta_opt_dominates_cut_point_scan(self, n):
        # the 4,001-point scan over w_t >= w_in is the search the closed form replaced
        for w_in in (0.7600, 0.8259, 0.8500):
            for eps, eps_e in ((1e-6, 1e-5), (3e-9, 2e-6)):
                opt = eat_eta(w_in, _cut_point(w_in), eps, eps_e, n, 0.26, 0.13)
                for wt in np.linspace(w_in, TSIRELSON_WIN, 4001, endpoint=False):
                    assert opt >= eat_eta(w_in, wt, eps, eps_e, n, 0.26, 0.13), (w_in, wt)

    def test_eta_opt_is_zero_at_or_below_three_quarters(self):
        # the program's length there has no entropy term: it equals the oracle's with eta_opt = 0
        model = HonestModel(0.76, 0.03, 0.26, 0.13)
        params, lec = protocol_at(10**9, model, 0.0), leak_ec(10**9, model, 0.005)
        split = (2.5e-6, 5e-6, 2.5e-6, 5e-7, 2.4e-6)
        for w_in in (0.75, 0.7499):
            assert eat_eta_opt(w_in, 1e-6, 1e-5, 10**9, 0.26, 0.13) == 0.0
            assert _length_of_split(params, w_in, lec)(split) == eat_ell_for_split(params, split, w_in, lec)

    def test_eta_opt_deterministic(self):
        assert eat_length(1_208_000) == eat_length(1_208_000)


class TestLeakEc:
    def test_paper_eta_inf(self):
        assert eta_inf(PAPER) == pytest.approx(0.16389749484222818, abs=1e-12)

    def test_no_tests_no_errors(self):
        m = HonestModel(omega=0.8265, q=0.0, gamma_a=0.0, gamma_b=0.0)
        assert eta_inf(m) == 0.0
        # pure sublinear overhead remains
        assert 0 < leak_ec(10**6, m, 0.005) < 10**5

    def test_rate_converges_to_eta_inf(self):
        target = eta_inf(PAPER)
        gaps = [leak_ec(n, PAPER, 0.005) / n - target for n in (10**6, 10**9, 10**12)]
        assert all(g > 0 for g in gaps)
        assert gaps[2] < 1e-4
        assert gaps[0] > gaps[1] > gaps[2]


class TestCompleteness:
    def test_threshold_at_mean(self):
        m = 0.26 * 0.13 * 0.8265
        assert completeness_ea(1000, m, 0.26, 0.13, 0.8265) == 1.0

    def test_decreasing_in_n(self):
        c = 0.26 * 0.13 * 0.8265 - 5e-4
        vals = [completeness_ea(n, c, 0.26, 0.13, 0.8265) for n in (10**4, 10**5, 10**6)]
        assert vals[0] > vals[1] > vals[2]

    def test_delta_solver_hits_target(self):
        for n in (10**4, 1_208_000):
            d = delta_for_completeness(n, 0.26, 0.13, 0.8265, target=1e-2)
            m = 0.26 * 0.13 * 0.8265
            assert completeness_ea(n, m - d, 0.26, 0.13, 0.8265) == pytest.approx(1e-2, rel=1e-6)

    def test_delta_solver_stops_early_at_the_full_runs_value(self):
        # the bisection stops once its midpoint sits at an end of the bracket; every value is the 200-step one's
        cases = [(1_208_000, 0.26, 0.13, 0.8265, 1e-2), (1, 0.5, 0.5, 0.85, 1.0 - 2.0**-53), (10**15, 0.2, 0.1, 0.8, 1e-300)]
        gen = np.random.default_rng(5)
        for _ in range(2000):
            n = int(10 ** gen.uniform(1.0, 12.0))
            gamma_a, gamma_b = gen.uniform(0.01, 0.99, 2)
            omega = gen.uniform(0.7501, 0.85)
            cases.append((n, float(gamma_a), float(gamma_b), float(omega), float(10 ** gen.uniform(-15.0, -0.01))))
        got = [delta_for_completeness(*case) for case in cases]
        assert got == [delta_for_completeness_200(*case) for case in cases]

    def test_monte_carlo_abort_below_bound(self):
        # 500 honest runs at n = 10^4: observed abort frequency must stay
        # below the Chernoff-style bound the delta was calibrated to
        from diqkd.protocol import accept, behavior_from_state, estimate, simulate_rounds
        from diqkd.quantum import NoiseParams, build_heralded_state

        behavior = behavior_from_state(build_heralded_state(NoiseParams.from_visibilities(0.943, 0.924)))
        omega = behavior.chsh_win_probability()
        n, target = 10_000, 0.05
        delta = delta_for_completeness(n, 0.26, 0.13, omega, target=target)
        aborts = 0
        for seed in range(500):
            p = ProtocolParams(
                n=n, gamma_a=0.26, gamma_b=0.13, omega_exp=omega, delta=delta,
                box_lo=(0, 0, 0), box_hi=(n, n, n), seed=seed,
            )
            if not accept(estimate(simulate_rounds(behavior, p)).counts, p)[0]:
                aborts += 1
        assert aborts / 500 <= target


class TestVartheta:
    def test_values(self):
        assert vartheta(0.5) == 3.0
        assert vartheta(2.0**-10) == 21.0
        assert vartheta(1e-5) == pytest.approx(34.21928, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            vartheta(0.0)
        with pytest.raises(ValueError):
            vartheta(1.0)


class TestKeyLength:
    def test_paper_point(self):
        res = eat_length(1_208_000)
        assert res.rate == pytest.approx(0.034, abs=0.015)
        assert res.length == res.raw_length > 0

    def test_tiny_n_yields_nothing(self):
        res = eat_length(1000)
        assert res.raw_length <= 0
        assert res.length == 0.0

    def test_budget_invariants_hold_at_optimum(self):
        s = eat_length(1_208_000).splits
        assert set(s) == {"eps_pa", "eps_s", "eps_s_prime", "eps_s_dprime", "eps_ea"}
        assert all(0.0 < v < 1.0 for v in s.values())
        assert s["eps_s"] - s["eps_s_prime"] - 2.0 * s["eps_s_dprime"] > 0.0
        assert EPS_EC + s["eps_pa"] + s["eps_s"] <= 1e-5
        assert EPS_EC + s["eps_pa"] + s["eps_s"] + s["eps_ea"] == pytest.approx(1e-5, rel=1e-12)

    def test_converges_to_sifted_asymptote(self):
        target = asymptotic_rate_sifted(2.612, 0.0285, 0.26, 0.13)
        res = eat_length(10**12)
        assert res.rate <= target
        assert target - res.rate < 0.002

    def test_monotonicities_fixed_split(self):
        # fixed epsilon split (eps_pa, eps_s, eps_s_prime, eps_s_dprime, eps_ea)
        # isolates the formula's monotone structure; omega_exp enters
        # through the protocol, q through the leakage
        split = (2.5e-6, 5e-6, 2.5e-6, 5e-7, 2.4e-6)
        delta = 5e-4

        def raw_length(n, model):
            omega_in = model.omega - delta / gamma_eff(model.gamma_a, model.gamma_b)
            return _length_of_split(protocol_at(n, model, delta), omega_in, leak_ec(n, model, 0.005))(split)

        rates_n = [raw_length(int(n), PAPER) for n in np.logspace(5.5, 9, 20)]
        assert all(b > a for a, b in zip(rates_n, rates_n[1:]))
        lengths_s = [
            raw_length(1_208_000, HonestModel.from_chsh(s, 0.0285, 0.26, 0.13)) for s in np.linspace(2.35, 2.82, 20)
        ]
        assert all(b > a for a, b in zip(lengths_s, lengths_s[1:]))
        lengths_q = [raw_length(1_208_000, HonestModel(0.8265, q, 0.26, 0.13)) for q in np.linspace(0.0, 0.08, 20)]
        assert all(b < a for a, b in zip(lengths_q, lengths_q[1:]))

    def test_below_asymptote(self):
        target = asymptotic_rate_sifted(2.612, 0.0285, 0.26, 0.13)
        for n in (10**5, 10**6, 10**8):
            res = eat_length(n)
            assert res.rate <= target


class TestSplitSearchMatchesOracle:
    """The hoisted split search reproduces the search over the term-by-term formula bit for bit."""

    @staticmethod
    def assert_matches(params, lec):
        res = key_length_eat(params, 1e-5, lec)
        length, raw, splits, pt = eat_key_length_search(params, 1e-5, lec)
        assert (res.length, res.raw_length, res.splits, res.pt) == (length, raw, splits, pt), params

    def test_paper_point(self):
        n = 1_208_000
        delta = delta_for_completeness(n, 0.26, 0.13, PAPER.omega, target=1e-2)
        self.assert_matches(protocol_at(n, PAPER, delta), leak_ec(n, PAPER, 0.005))

    def test_random_cells(self):
        for params in random_cells(108, 30):
            model = HonestModel(params.omega_exp, 0.03, params.gamma_a, params.gamma_b)
            self.assert_matches(params, leak_ec(params.n, model, 0.005))

    def test_threshold_at_or_below_classical_point(self):
        # omega_in = 0.76 - 0.02 / gamma_eff is below 3/4, where the certificate is 0
        model = HonestModel(0.76, 0.03, 0.26, 0.13)
        self.assert_matches(protocol_at(10**5, model, 0.02), leak_ec(10**5, model, 0.005))


class TestAsymptotic:
    def test_paper_value(self):
        assert asymptotic_rate_sifted(2.612, 0.0285, 0.26, 0.13) == pytest.approx(
            0.27502927083557066, abs=1e-12
        )
        assert asymptotic_rate_sifted(2.612, 0.0285, 0.26, 0.13) == pytest.approx(0.275, abs=0.002)

    def test_classical_bound_no_key(self):
        assert asymptotic_rate_sifted(2.0, 0.0285, 0.26, 0.13) < 0.0
        assert asymptotic_rate_nosift(2.0, 0.1) == pytest.approx(-0.4689956, abs=1e-6)

    def test_perfect_limit(self):
        s = 2 * math.sqrt(2)
        assert asymptotic_rate_nosift(s, 0.0) == pytest.approx(1.0)
        assert asymptotic_rate_sifted(s, 0.0, 1e-9, 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_nosift_paper_point(self):
        assert asymptotic_rate_nosift(2.612, 0.0285) == pytest.approx(0.4110458289286252, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            asymptotic_rate_sifted(1.9, 0.01, 0.26, 0.13)
        with pytest.raises(ValueError):
            asymptotic_rate_nosift(1.9, 0.01)
