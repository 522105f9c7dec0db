import math

import numpy as np
import pytest

from diqkd.eat import EatBudget, HonestModel, asymptotic_rate_sifted, delta_for_completeness, key_length_eat, leak_ec
from diqkd.mathcore import TSIRELSON_WIN, Distribution3
from diqkd.protocol import ProtocolParams
from diqkd.renyi import (
    AcceptanceSet,
    RenyiConfig,
    build_acceptance_set,
    h_alpha,
    key_length_renyi,
    q_honest,
    renyi_entropy_factor,
    renyi_key_entropy,
    sift_weights,
    sifted_entropy_bound,
)
from diqkd.renyi import _inner_min_vec

PAPER = HonestModel.from_chsh(2.612, 0.0285, 0.26, 0.13)
N_PAPER = 1_208_000


def paper_acc(n=N_PAPER, eps_com_at=0.005):
    return build_acceptance_set(q_honest(0.26, 0.13, PAPER.omega), n, eps_com_at)


def paper_leak(n=N_PAPER):
    return leak_ec(n, PAPER, 0.005)


def paper_params(n=N_PAPER):
    delta = delta_for_completeness(n, 0.26, 0.13, PAPER.omega, target=1e-2)
    return ProtocolParams(n=n, gamma_a=0.26, gamma_b=0.13, omega_exp=PAPER.omega, delta=delta)


class TestHonestDistribution:
    def test_no_tests(self):
        d = q_honest(1e-12, 1e-12, 0.8)
        assert d.q_perp == pytest.approx(1.0)

    def test_all_tests_all_wins(self):
        d = q_honest(1.0, 1.0, 1.0)
        assert (d.q0, d.q1, d.q_perp) == (0.0, 1.0, 0.0)

    def test_paper_point(self):
        d = q_honest(0.26, 0.13, 0.8265)
        assert d.q0 == pytest.approx(0.005864, abs=1e-6)
        assert d.q1 == pytest.approx(0.027936, abs=1e-6)
        assert d.q_perp == pytest.approx(0.96620, abs=1e-6)


class TestAcceptanceSet:
    def test_degenerate_level_collapses_box(self):
        acc = build_acceptance_set(q_honest(0.26, 0.13, 0.8265), 1000, 6.0)
        assert acc.delta_low == (0.0, 0.0, 0.0)
        assert acc.delta_upp == (0.0, 0.0, 0.0)
        assert acc.contains(acc.q_hon.as_array())

    def test_box_contains_honest_point(self):
        acc = paper_acc()
        assert acc.contains(acc.q_hon.as_array())
        assert np.all(acc.lower() <= acc.q_hon.as_array())
        assert np.all(acc.upper() >= acc.q_hon.as_array())

    def test_deviations_shrink_like_sqrt_n(self):
        for n in (10_000, 100_000):
            d1 = build_acceptance_set(q_honest(0.26, 0.13, 0.8265), n, 0.05)
            d4 = build_acceptance_set(q_honest(0.26, 0.13, 0.8265), 4 * n, 0.05)
            for i in range(3):
                assert 0.4 <= d4.delta_low[i] / d1.delta_low[i] <= 0.6
                assert 0.4 <= d4.delta_upp[i] / d1.delta_upp[i] <= 0.6

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            AcceptanceSet(Distribution3(0.1, 0.2, 0.7), (-0.1, 0, 0), (0, 0, 0))


class TestEntropyFactor:
    def test_tsirelson_gives_one_bit(self):
        for alpha in (1.0001, 1.3, 2.0):
            assert renyi_entropy_factor(2 * math.sqrt(2), alpha) == pytest.approx(2.0 ** (1 - alpha))
            assert renyi_key_entropy(2 * math.sqrt(2), alpha) == pytest.approx(1.0)

    def test_classical_gives_zero(self):
        for alpha in (1.0001, 1.5, 2.0):
            assert renyi_entropy_factor(2.0, alpha) == 1.0
            assert renyi_key_entropy(2.0, alpha) == 0.0
        assert renyi_entropy_factor(1.2, 1.5) == 1.0  # clamped below the bound

    def test_unphysical_rejected(self):
        with pytest.raises(ValueError):
            renyi_entropy_factor(2.9, 1.5)

    def test_against_high_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 50
        for s, alpha in ((2.612, 1.2), (2.3, 1.05), (2.75, 1.9)):
            r = mpmath.sqrt(mpmath.mpf(s) ** 2 / 4 - 1)
            br = ((1 - r) / 2) ** (1 / mpmath.mpf(alpha)) + ((1 + r) / 2) ** (1 / mpmath.mpf(alpha))
            factor = 2 ** (1 - mpmath.mpf(alpha)) * br ** mpmath.mpf(alpha)
            want = float(mpmath.log(factor, 2) / (1 - mpmath.mpf(alpha)))
            got = renyi_key_entropy(s, alpha)
            assert got == pytest.approx(want, rel=1e-12)
            assert 0.0 < got < 1.0

    def test_monotone_in_s_and_alpha(self):
        alphas = np.linspace(1.01, 2.0, 10)
        scores = np.linspace(2.05, 2.8, 10)
        for a in alphas:
            ent = [renyi_key_entropy(s, a) for s in scores]
            assert all(y > x for x, y in zip(ent, ent[1:]))
        for s in scores:
            ent = [renyi_key_entropy(s, a) for a in alphas]
            assert all(y < x for x, y in zip(ent, ent[1:]))


class TestSiftedBound:
    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            ga, gb = rng.uniform(0.001, 0.999, 2)
            wk, wr = sift_weights(ga, gb)
            assert wk + wr == pytest.approx(1.0, abs=1e-14)

    def test_paper_weights(self):
        wk, wr = sift_weights(0.26, 0.13)
        assert wk == pytest.approx(0.7833781825708963, abs=1e-12)
        assert wr == pytest.approx(0.2166218174291037, abs=1e-12)

    def test_weight_collapse_without_sifting(self):
        wk, wr = sift_weights(0.0, 0.0)
        assert (wk, wr) == (1.0, 0.0)
        for alpha in (1.1, 1.7):
            assert sifted_entropy_bound(alpha, 0.0, 0.0, 2.612) == pytest.approx(
                renyi_key_entropy(2.612, alpha)
            )

    def test_classical_score_certifies_nothing(self):
        assert sifted_entropy_bound(1.3, 0.26, 0.13, 2.0) == 0.0

    def test_dilution(self):
        # with sifting, the kept-round entropy is below the pure key bound
        full = renyi_key_entropy(2.612, 1.2)
        assert 0.0 < sifted_entropy_bound(1.2, 0.26, 0.13, 2.612) < full


def inner_objective(q, p, kappa, alpha):
    """D(q||p)/(alpha-1) + q_perp kappa, written out from its definition."""
    div = sum(qc * math.log2(qc / pc) for qc, pc in zip(q, p) if qc > 0.0)
    return div / (alpha - 1.0) + q[2] * kappa


def inner_reference(p, lo, hi, kappa, alpha, start):
    """Box- and simplex-constrained minimum by SLSQP from a feasible start."""
    from scipy.optimize import minimize

    on = p > 0.0
    hi = np.where(on, hi, 0.0)
    lin = np.array([0.0, 0.0, kappa])

    def grad(q):
        g = np.zeros(3)
        g[on] = (np.log2(np.maximum(q[on], 1e-300) / p[on]) + 1.0 / math.log(2.0)) / (alpha - 1.0)
        return g + lin

    res = minimize(
        lambda q: inner_objective(np.maximum(q, 0.0), p, kappa, alpha),
        start,
        jac=grad,
        method="SLSQP",
        bounds=list(zip(lo, hi)),
        constraints=[{"type": "eq", "fun": lambda q: q.sum() - 1.0, "jac": lambda q: np.ones(3)}],
        options={"ftol": 1e-14, "maxiter": 500},
    )
    q = np.clip(res.x, lo, hi)
    return inner_objective(q / q.sum(), p, kappa, alpha)


def solve_inner(p, lo, hi, kappa, alpha):
    return float(_inner_min_vec(np.array([p], dtype=float), np.asarray(lo, float), np.asarray(hi, float), np.array([kappa]), alpha)[0])


class TestInnerSolve:
    def test_matches_constrained_minimizer_on_random_boxes(self):
        rng = np.random.default_rng(61)
        for case in range(40):
            p = rng.dirichlet(np.ones(3))
            if case % 5 == 0:
                p[case % 3] = 0.0  # a coordinate off the model support
                p /= p.sum()
            start = rng.dirichlet(np.ones(3)) * (p > 0.0)
            start /= start.sum()
            lo = np.maximum(start - rng.uniform(0.0, 0.3, 3), 0.0) * (p > 0.0)
            hi = np.minimum(start + rng.uniform(0.0, 0.3, 3), 1.0)
            kappa, alpha = rng.uniform(0.0, 1.0), rng.uniform(1.01, 2.0)
            got = solve_inner(p, lo, hi, kappa, alpha)
            want = inner_reference(p, lo, hi, kappa, alpha, start)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_paper_box_against_dense_simplex_grid(self):
        acc = paper_acc()
        lo, hi = acc.lower(), acc.upper()
        q0 = np.linspace(lo[0], hi[0], 401)[:, None]
        q1 = np.linspace(lo[1], hi[1], 401)[None, :]
        q2 = 1.0 - q0 - q1
        keep = (q2 >= lo[2]) & (q2 <= hi[2])
        gg = 0.26 * 0.13
        for w, alpha in ((0.80, 1.0004), (0.75, 1.01), (0.70, 1.2)):
            p = np.array([gg * (1.0 - w), gg * w, 1.0 - gg])
            kappa = sifted_entropy_bound(alpha, 0.26, 0.13, 8.0 * (w - 0.5)) if w > 0.75 else 0.0
            div = q0 * np.log2(q0 / p[0]) + q1 * np.log2(q1 / p[1]) + q2 * np.log2(q2 / p[2])
            grid = np.where(keep, div / (alpha - 1.0) + q2 * kappa, np.inf)
            got = solve_inner(p, lo, hi, kappa, alpha)
            assert got <= grid.min() * (1.0 + 1e-11)
            assert got == pytest.approx(grid.min(), rel=1e-4)

    def test_floors_or_ceilings_summing_to_one_pin_the_point(self):
        p = np.array([0.5, 0.3, 0.2])
        floor = np.array([0.2, 0.3, 0.5])
        ceiling = np.array([0.3, 0.2, 0.5 - 1e-13])  # short of 1 by less than the feasibility slack
        for kappa, alpha in ((0.0, 1.5), (0.7, 1.01)):
            got = solve_inner(p, floor, floor + 0.1, kappa, alpha)
            assert got == pytest.approx(inner_objective(floor, p, kappa, alpha), rel=1e-12)
            got = solve_inner(p, ceiling - 0.1, ceiling, kappa, alpha)
            assert got == pytest.approx(inner_objective(ceiling / ceiling.sum(), p, kappa, alpha), rel=1e-12)

    def test_infeasible_cells_are_infinite(self):
        p = np.array([[0.0, 0.4, 0.6], [0.0, 0.4, 0.6], [0.3, 0.3, 0.4]])
        kappa = np.array([0.2, 0.2, 0.2])
        # a positive floor off the support; then support ceilings that cannot carry the mass
        lo, hi = np.array([0.01, 0.0, 0.0]), np.array([1.0, 1.0, 1.0])
        vals = _inner_min_vec(p, lo, hi, kappa, 1.3)
        assert np.isinf(vals[:2]).all() and vals[0] > 0
        assert np.isfinite(vals[2])
        lo, hi = np.zeros(3), np.array([1.0, 0.45, 0.5])
        vals = _inner_min_vec(p, lo, hi, kappa, 1.3)
        assert np.isinf(vals[:2]).all() and vals[0] > 0
        assert np.isfinite(vals[2])


class TestHAlpha:
    def test_point_box_forced_score(self):
        acc = AcceptanceSet(q_honest(0.26, 0.13, 0.8265), (0, 0, 0), (0, 0, 0))
        cfg = RenyiConfig(alpha=1.2)
        got = h_alpha(cfg, 0.26, 0.13, acc, omega_bounds=(0.8265, 0.8265))
        want = 0.96620 * sifted_entropy_bound(1.2, 0.26, 0.13, 2.612)
        assert got == pytest.approx(want, rel=1e-9)

    def test_perfect_violation_limit(self):
        ga = gb = 1e-5
        w = (2 + math.sqrt(2)) / 4
        acc = AcceptanceSet(q_honest(ga, gb, w), (0, 0, 0), (0, 0, 0))
        got = h_alpha(RenyiConfig(alpha=1 + 1e-6), ga, gb, acc, omega_bounds=(w, w))
        assert got == pytest.approx(1.0, abs=1e-3)

    def test_nonincreasing_in_alpha(self):
        acc = paper_acc()
        vals = [h_alpha(RenyiConfig(alpha=a), 0.26, 0.13, acc) for a in np.linspace(1.001, 2.0, 10)]
        assert all(y <= x + 1e-12 for x, y in zip(vals, vals[1:]))

    def test_nondecreasing_as_box_shrinks(self):
        base = paper_acc()
        cfg = RenyiConfig(alpha=1.01)
        vals = []
        for scale in (4.0, 2.0, 1.0, 0.5, 0.25, 0.0):
            acc = AcceptanceSet(
                base.q_hon,
                tuple(d * scale for d in base.delta_low),
                tuple(d * scale for d in base.delta_upp),
            )
            vals.append(h_alpha(cfg, 0.26, 0.13, acc))
        assert all(y >= x - 1e-12 for x, y in zip(vals, vals[1:]))

    def test_batched_orders_equal_single_orders(self):
        acc = paper_acc()
        coarse = np.unique(np.minimum(1.0 + np.logspace(-5.0, 0.0, 64), 2.0))
        alphas = np.concatenate([coarse, [1.0004010279139497, 1.01, 1.2]])  # 67: a partial last chunk
        batched = h_alpha(RenyiConfig(), 0.26, 0.13, acc, alphas=alphas)
        for a, got in zip(alphas, batched):
            assert got == h_alpha(RenyiConfig(alpha=float(a)), 0.26, 0.13, acc)

    def test_dense_grid_minimum_and_kink(self):
        acc = paper_acc()
        ws = np.linspace(0.5, TSIRELSON_WIN, 4001)
        gg = 0.26 * 0.13

        def outer(alpha, w):
            s = 8.0 * (w - 0.5)
            kappa = np.where(s > 2.0, sifted_entropy_bound(alpha, 0.26, 0.13, s), 0.0)
            p = np.stack([gg * (1.0 - w), gg * w, np.full_like(w, 1.0 - gg)], axis=1)
            return _inner_min_vec(p, acc.lower(), acc.upper(), kappa, alpha)

        for alpha in (1.0004, 1.01, 1.2):
            dense = outer(alpha, ws)
            got = h_alpha(RenyiConfig(alpha=alpha), 0.26, 0.13, acc)
            assert got <= dense.min()
            if alpha >= 1.01:
                # the minimizer sits at the kink omega = 3/4, where the entropy term switches on
                assert abs(ws[np.argmin(dense)] - 0.75) <= ws[1] - ws[0]
                assert got == pytest.approx(float(outer(alpha, np.array([0.75]))[0]), rel=1e-12)

    def test_adversary_exploits_wide_box(self):
        # a much wider box lets the attack drop the certified score
        wide = AcceptanceSet(q_honest(0.26, 0.13, 0.8265), (0.03, 0.03, 0.03), (0.03, 0.03, 0.03))
        tight = paper_acc()
        cfg = RenyiConfig(alpha=1.05)
        assert h_alpha(cfg, 0.26, 0.13, wide) < h_alpha(cfg, 0.26, 0.13, tight)


class TestKeyLength:
    def test_paper_point(self):
        res = key_length_renyi(paper_params(), RenyiConfig(eps_sec=1e-5 - 2.0**-61), paper_acc(), paper_leak())
        assert res.rate == pytest.approx(0.112, abs=0.015)
        assert res.length == pytest.approx(135_300, abs=18_000)
        assert 1.0 < res.alpha <= 2.0

    def test_tight_soundness(self):
        res = key_length_renyi(paper_params(), RenyiConfig(eps_sec=1e-15 - 2.0**-61), paper_acc(), paper_leak())
        assert res.rate == pytest.approx(0.075, abs=0.015)

    def test_tiny_n_yields_nothing(self):
        n = 1000
        acc = build_acceptance_set(q_honest(0.26, 0.13, PAPER.omega), n, 0.005)
        res = key_length_renyi(paper_params(n), RenyiConfig(eps_sec=1e-5), acc, leak_ec(n, PAPER, 0.005))
        assert res.raw_length <= 0.0
        assert res.length == 0.0

    def test_beats_accumulation_at_paper_block(self):
        renyi = key_length_renyi(
            paper_params(), RenyiConfig(eps_sec=1e-5 - 2.0**-61), paper_acc(), paper_leak()
        )
        eat = key_length_eat(paper_params(), EatBudget(eps_snd=1e-5), paper_leak())
        assert renyi.rate > eat.rate

    def test_below_sifted_asymptote(self):
        asym = asymptotic_rate_sifted(2.612, 0.0285, 0.26, 0.13)
        for n in (10**5, N_PAPER, 10**8):
            acc = build_acceptance_set(q_honest(0.26, 0.13, PAPER.omega), n, 0.005)
            res = key_length_renyi(
                paper_params(n), RenyiConfig(eps_sec=1e-5, alpha_grid=24), acc, leak_ec(n, PAPER, 0.005)
            )
            assert res.rate < asym

    def test_fixed_alpha_evaluation(self):
        cfg = RenyiConfig(alpha=1.001, eps_sec=1e-5)
        res = key_length_renyi(paper_params(), cfg, paper_acc(), paper_leak())
        assert res.alpha == 1.001
        assert res.raw_length == pytest.approx(
            N_PAPER * res.h_alpha_bits
            - N_PAPER * (0.26 * 0.13 + paper_acc().delta_low_perp)
            - paper_leak()
            - 64.0
            - 1.001 / 0.001 * math.log2(1 / 1e-5)
            + 2.0,
            rel=1e-12,
        )
