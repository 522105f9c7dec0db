import math

import mpmath
import numpy as np
import pytest
from oracles import renyi_coarse_order, renyi_h_alpha, renyi_objective, renyi_sifted_bound

from diqkd import renyi
from diqkd.cli import RunConfig, run_pipeline, sweep_keyrate_vs_n
from diqkd.eat import EPS_EC, HonestModel, asymptotic_rate_sifted, delta_for_completeness, key_length_eat, leak_ec
from diqkd.mathcore import TSIRELSON_WIN
from diqkd.protocol import ProtocolParams, accept, build_acceptance_set
from diqkd.renyi import certified_h_alpha, h_alpha, key_length_renyi, sift_weights
from diqkd.renyi import _inner_min_vec, _kappa

PAPER = HonestModel.from_chsh(2.612, 0.0285, 0.26, 0.13)
N_PAPER = 1_208_000


def honest(gamma_a, gamma_b, omega):
    """The honest (lose, win, no-test) distribution."""
    gg = gamma_a * gamma_b
    return np.array([gg * (1.0 - omega), gg * omega, 1.0 - gg])


def box_params(n, gamma_a, gamma_b, omega, box_lo, box_hi):
    """A protocol testing the given count box (the Renyi bound does not read delta)."""
    return ProtocolParams(
        n=n, gamma_a=gamma_a, gamma_b=gamma_b, omega_exp=omega, delta=0.0, box_lo=box_lo, box_hi=box_hi
    )


def cell_params(n, gamma_a, gamma_b, omega, eps_com_at):
    """A protocol testing the box build_acceptance_set finds for the cell."""
    return box_params(n, gamma_a, gamma_b, omega, *build_acceptance_set(n, gamma_a, gamma_b, omega, eps_com_at))


def paper_params(n=N_PAPER, eps_com_at=0.005):
    delta = delta_for_completeness(n, 0.26, 0.13, PAPER.omega, target=1e-2)
    box_lo, box_hi = build_acceptance_set(n, 0.26, 0.13, PAPER.omega, eps_com_at)
    return ProtocolParams(
        n=n, gamma_a=0.26, gamma_b=0.13, omega_exp=PAPER.omega, delta=delta, box_lo=box_lo, box_hi=box_hi
    )


def paper_leak(n=N_PAPER):
    return leak_ec(n, PAPER, 0.005)


def bounds(params):
    """The box as frequency bounds (lo, hi): counts over n."""
    return tuple(np.array(b, dtype=float) / params.n for b in (params.box_lo, params.box_hi))


def model_objective(alpha, w, gamma_a, gamma_b, lo, hi):
    """Inner minimum at the model distribution of win probabilities w, with kappa from the oracle's bound."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    gg = gamma_a * gamma_b
    s = 8.0 * (w - 0.5)
    kappa = np.where(s > 2.0, renyi_sifted_bound(alpha, gamma_a, gamma_b, s), 0.0)
    p = np.array([gg * (1.0 - w), gg * w, np.full_like(w, 1.0 - gg)])
    return _inner_min_vec(p, lo[:, None], hi[:, None], kappa, alpha - 1.0)


def order_terms(alpha):
    """The kernel's order terms a, 1/a and 2^(1-a), and 1 - a."""
    a = np.asarray(alpha, dtype=float)
    return (a, 1.0 / a, 2.0 ** (1.0 - a)), 1.0 - a


def sifted_kappa(w, alpha, gamma_a, gamma_b):
    """The kernel's kappa at win probabilities w: the key bit's entropy diluted by the sift weights."""
    return _kappa(w, *sift_weights(gamma_a, gamma_b), *order_terms(alpha))


def key_entropy(w, alpha):
    """The key bit's entropy at win probabilities w, from the kernel's kappa at key weight 1 and rest weight 0."""
    return _kappa(w, 1.0, 0.0, *order_terms(alpha))


COARSE_ORDERS = np.unique(np.minimum(1.0 + np.logspace(-5.0, 0.0, 64), 2.0))


class TestHonestDistribution:
    """build_acceptance_set centres the box on the honest (lose, win, no-test) distribution."""

    def test_no_tests(self):
        # with vanishing test fractions every round is a no-test round
        assert build_acceptance_set(1000, 1e-12, 1e-12, 0.8, 0.005) == ((0, 0, 1000), (0, 0, 1000))

    def test_all_tests_all_wins(self):
        assert build_acceptance_set(1000, 1.0, 1.0, 1.0, 0.005) == ((0, 1000, 0), (0, 1000, 0))

    def test_paper_point(self):
        n = 10**9
        lo, hi = build_acceptance_set(n, 0.26, 0.13, 0.8265, 0.005)
        mid = (np.array(lo) + np.array(hi)) / (2 * n)
        assert mid == pytest.approx([0.005864, 0.027936, 0.96620], abs=1e-6)


class TestAcceptanceSet:
    @pytest.mark.parametrize("eps_com_at", [0.0, -0.1, 1.0, 2.0, 6.0, math.nan])
    def test_level_outside_unit_interval_rejected(self, eps_com_at):
        # at eps_com_at >= 1 the box would keep narrowing and certify more key
        with pytest.raises(ValueError, match="eps_com_at"):
            build_acceptance_set(1000, 0.26, 0.13, 0.8265, eps_com_at)

    def test_box_contains_honest_point(self):
        params = paper_params()
        mean = honest(0.26, 0.13, PAPER.omega) * N_PAPER
        assert np.all(np.array(params.box_lo) <= mean) and np.all(mean <= np.array(params.box_hi))
        c0, c1 = (int(round(c)) for c in mean[:2])
        assert accept((c0, c1, N_PAPER - c0 - c1), params) == (True, True)

    def test_block_sizes_equal_their_one_point_calls(self):
        ns = [1000, 10_000, 1_208_000, 10**7]
        assert build_acceptance_set(ns, 0.26, 0.13, 0.8265, 0.005) == [
            build_acceptance_set(n, 0.26, 0.13, 0.8265, 0.005) for n in ns
        ]
        assert build_acceptance_set(ns[:1], 0.26, 0.13, 0.8265, 0.005) == [build_acceptance_set(1000, 0.26, 0.13, 0.8265, 0.005)]

    def test_deviations_shrink_like_sqrt_n(self):
        p = honest(0.26, 0.13, 0.8265)
        for n in (10_000, 100_000):
            lo1, hi1 = (np.array(b) / n for b in build_acceptance_set(n, 0.26, 0.13, 0.8265, 0.05))
            lo4, hi4 = (np.array(b) / (4 * n) for b in build_acceptance_set(4 * n, 0.26, 0.13, 0.8265, 0.05))
            assert np.all((0.4 <= (p - lo4) / (p - lo1)) & ((p - lo4) / (p - lo1) <= 0.6))
            assert np.all((0.4 <= (hi4 - p) / (hi1 - p)) & ((hi4 - p) / (hi1 - p) <= 0.6))

    def test_invalid_box_rejected(self):
        for box_lo, box_hi in (
            ((-1, 0, 0), (10, 40, 1000)),  # a negative floor
            ((0, 41, 0), (10, 40, 1000)),  # a floor above its ceiling
            ((0, 0, 0), (10, 40, 1001)),  # a ceiling above n
            ((0, 0), (10, 40)),  # two symbols
            ((0.0, 0.02, 0.9), (0.01, 0.04, 1.0)),  # frequencies, not counts
        ):
            with pytest.raises(ValueError, match="box"):
                box_params(1000, 0.26, 0.13, 0.8265, box_lo, box_hi)


class TestEntropyFactor:
    """The key bit's entropy, read from the kernel's kappa at key weight 1 and rest weight 0."""

    def test_tsirelson_gives_one_bit(self):
        for alpha in (1.0001, 1.3, 2.0):
            assert key_entropy(TSIRELSON_WIN, alpha) == pytest.approx(1.0)

    def test_classical_gives_zero(self):
        # omega <= 3/4 is S <= 2, where the entropy term is off
        for alpha in (1.0001, 1.5, 2.0):
            assert key_entropy(0.75, alpha) == 0.0
        assert key_entropy(0.65, 1.5) == 0.0

    def test_against_high_precision_oracle(self):
        with mpmath.workdps(50):
            for s, alpha in ((2.612, 1.2), (2.3, 1.05), (2.75, 1.9)):
                r = mpmath.sqrt(mpmath.mpf(s) ** 2 / 4 - 1)
                br = ((1 - r) / 2) ** (1 / mpmath.mpf(alpha)) + ((1 + r) / 2) ** (1 / mpmath.mpf(alpha))
                factor = 2 ** (1 - mpmath.mpf(alpha)) * br ** mpmath.mpf(alpha)
                want = float(mpmath.log(factor, 2) / (1 - mpmath.mpf(alpha)))
                got = key_entropy(0.5 + s / 8.0, alpha)
                assert got == pytest.approx(want, rel=1e-12)
                assert 0.0 < got < 1.0

    def test_monotone_in_s_and_alpha(self):
        alphas = np.linspace(1.01, 2.0, 10)
        ws = 0.5 + np.linspace(2.05, 2.8, 10) / 8.0
        for a in alphas:
            assert np.all(np.diff(key_entropy(ws, a)) > 0.0)
        for w in ws:
            assert np.all(np.diff(key_entropy(w, alphas)) < 0.0)


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
        # the limit of vanishing test fractions: every kept round is a key round
        wk, wr = sift_weights(1e-9, 1e-9)
        assert wk == pytest.approx(1.0, abs=1e-8) and wr == pytest.approx(0.0, abs=1e-8)
        w = 0.5 + 2.612 / 8.0
        for alpha in (1.1, 1.7):
            assert sifted_kappa(w, alpha, 1e-9, 1e-9) == pytest.approx(key_entropy(w, alpha))

    @pytest.mark.parametrize("gammas", [(1.5, 0.5), (1.0, 1.0), (0.0, 0.5), (0.5, 0.0), (-0.1, 0.5), (math.nan, 0.5)])
    def test_fractions_outside_unit_interval_rejected(self, gammas):
        # 1.5 used to certify 17 bits per round, (1, 1) divided by zero and (0, 0.5)
        # reported an infeasible box; no protocol, so no h_alpha call, holds them now
        with pytest.raises(ValueError, match="test fractions"):
            sift_weights(*gammas)
        with pytest.raises(ValueError, match="test fractions"):
            box_params(1000, *gammas, 0.8265, (0, 0, 0), (1000, 1000, 1000))

    def test_classical_score_certifies_nothing(self):
        assert sifted_kappa(0.75, 1.3, 0.26, 0.13) == 0.0

    def test_dilution(self):
        # with sifting, the kept-round entropy is below the pure key bound
        w = 0.5 + 2.612 / 8.0
        assert 0.0 < sifted_kappa(w, 1.2, 0.26, 0.13) < key_entropy(w, 1.2)

    @pytest.mark.parametrize("lone", [False, True])
    def test_kappa_against_oracle_on_random_points(self, lone):
        # one order, pair of test fractions and win probability per row; every fifth order is 2, where a lone
        # order takes numpy's scalar-exponent rounding
        rng = np.random.default_rng(29)
        alpha = 2.0 - rng.uniform(0.0, 1.0, 200)  # in (1, 2]
        alpha[::5] = 2.0
        ga, gb = rng.uniform(0.0, 1.0, (2, 200))
        ws = TSIRELSON_WIN - rng.uniform(0.0, TSIRELSON_WIN - 0.75, 200)  # in (3/4, TSIRELSON_WIN]
        w_key, w_rest = np.array([sift_weights(a, b) for a, b in zip(ga, gb)]).T
        got = _kappa(ws, w_key, w_rest, *order_terms(alpha), lone)
        want = renyi_sifted_bound(alpha, ga, gb, 8.0 * (ws - 0.5))
        assert np.all(want > 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


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
    column = lambda x: np.asarray(x, dtype=float)[:, None]  # noqa: E731
    return float(_inner_min_vec(column(p), column(lo), column(hi), np.array([kappa]), alpha - 1.0)[0])


class TestInnerSolve:
    def test_matches_constrained_minimizer_on_random_boxes(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            p = rng.dirichlet(np.ones(3))
            start = rng.dirichlet(np.ones(3))
            lo = np.maximum(start - rng.uniform(0.0, 0.3, 3), 0.0)
            hi = np.minimum(start + rng.uniform(0.0, 0.3, 3), 1.0)
            kappa, alpha = rng.uniform(0.0, 1.0), rng.uniform(1.01, 2.0)
            got = solve_inner(p, lo, hi, kappa, alpha)
            want = inner_reference(p, lo, hi, kappa, alpha, start)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_paper_box_against_dense_simplex_grid(self):
        lo, hi = bounds(paper_params())
        q0 = np.linspace(lo[0], hi[0], 401)[:, None]
        q1 = np.linspace(lo[1], hi[1], 401)[None, :]
        q2 = 1.0 - q0 - q1
        keep = (q2 >= lo[2]) & (q2 <= hi[2])
        gg = 0.26 * 0.13
        for w, alpha in ((0.80, 1.0004), (0.75, 1.01), (0.70, 1.2)):
            p = np.array([gg * (1.0 - w), gg * w, 1.0 - gg])
            kappa = renyi_sifted_bound(alpha, 0.26, 0.13, 8.0 * (w - 0.5)) if w > 0.75 else 0.0
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

    def test_rows_off_the_support_rejected(self):
        # with 0 < gamma_a gamma_b < 1 and a score in [1/2, (2+sqrt2)/4] every model entry is positive
        p = np.array([[0.3, 0.0], [0.3, 0.4], [0.4, 0.6]])
        lo, hi = np.zeros((3, 1)), np.ones((3, 1))
        with pytest.raises(ValueError, match="positive"):
            _inner_min_vec(p, lo, hi, np.array([0.2, 0.2]), 0.3)
        assert np.isfinite(_inner_min_vec(p[:, :1], lo, hi, np.array([0.2]), 0.3)).all()

    def test_box_whose_ceilings_cannot_carry_the_mass_rejected(self):
        # ceilings of 100 + 300 + 500 counts cannot hold n = 1000 rounds
        short = box_params(1000, 0.26, 0.13, 0.8265, (0, 0, 0), (100, 300, 500))
        with pytest.raises(ValueError, match="infeasible"):
            h_alpha([short], np.array([1.1]))


class TestHAlpha:
    def test_point_box_forced_score(self):
        q = honest(0.26, 0.13, 0.8265)
        got = model_objective(1.2, 0.8265, 0.26, 0.13, q, q)[0]
        want = 0.96620 * renyi_sifted_bound(1.2, 0.26, 0.13, 2.612)
        assert got == pytest.approx(want, rel=1e-9)

    def test_perfect_violation_limit(self):
        ga = gb = 1e-5
        w = (2 + math.sqrt(2)) / 4
        q = honest(ga, gb, w)
        got = model_objective(1 + 1e-6, w, ga, gb, q, q)[0]
        assert got == pytest.approx(1.0, abs=1e-3)

    def test_nonincreasing_in_alpha(self):
        params = paper_params()
        (vals,) = h_alpha([params], np.linspace(1.001, 2.0, 10))
        assert all(y <= x + 1e-12 for x, y in zip(vals, vals[1:]))

    def test_nondecreasing_as_box_shrinks(self):
        # the paper box's count deviations from the honest mean, scaled; the
        # floors and ceilings round outward, so each box holds the next
        base = paper_params()
        mean = honest(0.26, 0.13, PAPER.omega) * N_PAPER
        vals = []
        for scale in (4.0, 2.0, 1.0, 0.5, 0.25, 0.0):
            lo = tuple(max(0, math.floor(m - scale * (m - b))) for m, b in zip(mean, base.box_lo))
            hi = tuple(min(N_PAPER, math.ceil(m + scale * (b - m))) for m, b in zip(mean, base.box_hi))
            vals.append(h_alpha([box_params(N_PAPER, 0.26, 0.13, PAPER.omega, lo, hi)], np.array([1.01]))[0, 0])
        assert all(y >= x - 1e-12 for x, y in zip(vals, vals[1:]))

    def test_batched_orders_equal_one_order_batches(self):
        params = paper_params()
        alphas = np.concatenate([COARSE_ORDERS, [1.0004010279139497, 1.01, 1.2]])  # 67: a partial last chunk
        (batched,) = h_alpha([params], alphas)
        for a, got in zip(alphas, batched):
            assert got == h_alpha([params], np.array([a]))[0, 0]

    def test_dense_grid_minimum_and_kink(self):
        params = paper_params()
        ws = np.linspace(0.5, TSIRELSON_WIN, 4001)

        def outer(alpha, w):
            return model_objective(alpha, w, 0.26, 0.13, *bounds(params))

        for alpha in (1.0004, 1.01, 1.2):
            dense = outer(alpha, ws)
            got = h_alpha([params], np.array([alpha]))[0, 0]
            assert got <= dense.min()
            if alpha >= 1.01:
                # the minimizer sits at the kink omega = 3/4, where the entropy term switches on
                assert abs(ws[np.argmin(dense)] - 0.75) <= ws[1] - ws[0]
                assert got == pytest.approx(float(outer(alpha, np.array([0.75]))[0]), rel=1e-12)

    def test_adversary_exploits_wide_box(self):
        # a much wider box, 0.03 n counts either side of the honest mean, lets the attack drop the certified score
        tight = paper_params()
        mean = honest(0.26, 0.13, PAPER.omega) * N_PAPER
        lo = tuple(max(0, math.floor(m - 0.03 * N_PAPER)) for m in mean)
        hi = tuple(min(N_PAPER, math.ceil(m + 0.03 * N_PAPER)) for m in mean)
        wide = box_params(N_PAPER, 0.26, 0.13, PAPER.omega, lo, hi)
        alphas = np.array([1.05])
        assert h_alpha([wide], alphas) < h_alpha([tight], alphas)


def random_cells(seed, count):
    """Protocols over the ranges the calculator meets, each box from its n and eps_com_at."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        ga, gb = rng.uniform(0.02, 0.98, 2)
        omega, n, eps = rng.uniform(0.76, 0.85), int(10 ** rng.uniform(3.0, 9.0)), 10 ** rng.uniform(-6.0, -1.0)
        yield cell_params(n, float(ga), float(gb), float(omega), eps)


class TestKernelMatchesOracle:
    """The hoisted kernel reproduces the masked row-per-cell solver bit for bit."""

    @pytest.mark.parametrize("seed", [101, 102, 103, 104, 105])
    def test_order_search_bitwise_on_random_cells(self, seed):
        for params in random_cells(seed, 30):
            (got,) = h_alpha([params], COARSE_ORDERS)
            want = renyi_h_alpha(COARSE_ORDERS, params.gamma_a, params.gamma_b, *bounds(params))
            assert np.array_equal(got, want), params

    def test_grid_stage_bitwise(self):
        # the golden refinement sets most reported values, so compare the whole (orders x grid) matrix and the kink;
        # the rows at and below omega = 3/4 are solved once per call and divided by alpha - 1 for each order
        grid = np.linspace(0.5, TSIRELSON_WIN, renyi._SIGMA_GRID)
        for params in random_cells(107, 4):
            cell = params.gamma_a, params.gamma_b, *bounds(params)
            for alphas in (COARSE_ORDERS, np.array([2.0])):
                vals, kink = renyi._grid_stage(renyi._outer_problem([params]), alphas[None])
                assert np.array_equal(vals[0], renyi_objective(alphas[:, None], grid, *cell))
                assert np.array_equal(kink[0], renyi_objective(alphas, 0.75, *cell))

    def test_fixed_order_bitwise(self):
        # a lone order takes numpy's scalar-exponent shortcuts (alpha = 2: sqrt and squaring)
        for params in random_cells(106, 6):
            for alpha in (1.0004, 1.01, 1.3, 2.0):
                want = renyi_h_alpha(np.array([alpha]), params.gamma_a, params.gamma_b, *bounds(params))[0]
                assert h_alpha([params], np.array([alpha]))[0, 0] == want

    def test_optimum_at_or_below_classical_point_bitwise(self):
        # a wide box at small n lets the attack sit where the entropy term is off
        params = cell_params(1000, 0.5, 0.5, 0.78, 0.1)
        grid = np.linspace(0.5, TSIRELSON_WIN, renyi._SIGMA_GRID)
        best = grid[np.argmin(renyi_objective(COARSE_ORDERS[:, None], grid, 0.5, 0.5, *bounds(params)), axis=1)]
        assert (best <= 0.75).any()
        (got,) = h_alpha([params], COARSE_ORDERS)
        assert np.array_equal(got, renyi_h_alpha(COARSE_ORDERS, 0.5, 0.5, *bounds(params)))

    @pytest.mark.parametrize("alpha, calls", [(None, 19), (1.001, 4)])
    def test_solver_calls_per_search(self, monkeypatch, alpha, calls):
        # an order search: the coarse pass's screen (1 call), then 2 h_alpha calls, the coarse pass's 8 orders of
        # the largest bounds (2 of the 64 can win here) and the refinement's 16, each 1 grid call + 1 for both first
        # golden points + 5 calls for the 10 golden steps, two a call; then 4 certificate rounds at the chosen
        # order: 1 + 2 x 7 + 4 = 19; a fixed order: the 4 certificate rounds alone
        seen = []
        solve = renyi._inner_min_vec
        monkeypatch.setattr(renyi, "_inner_min_vec", lambda *args: seen.append(1) or solve(*args))
        key_length_renyi([paper_params()], 1e-5, [paper_leak()], alpha=alpha)
        assert len(seen) == calls

    def test_solver_calls_per_sweep(self, monkeypatch):
        # the default 8-point sweep: the screen solves three points' 896 + 137 rows per call (3), the coarse pass's
        # 8 orders seven points' 448 + 137 rows per grid call (2), the refinement three points' 896 + 137 (3), each
        # h_alpha call 6 golden calls for all points, and the certificate runs 10 rounds, as long as its slowest
        # point (n = 1e4 at alpha = 2): 3 + 8 + 9 + 10 = 30, against 8 x 19
        seen = []
        solve = renyi._inner_min_vec
        monkeypatch.setattr(renyi, "_inner_min_vec", lambda *args: seen.append(1) or solve(*args))
        config = RunConfig(s_obs=2.612, q_obs=0.0285)
        sweep_keyrate_vs_n(config, config.sweep_n_grid)
        assert len(seen) == 30


class TestScreenedOrderSearch:
    """The coarse pass solves only the orders whose screening bound can still win, and picks what solving all picks."""

    @staticmethod
    def checked(monkeypatch):
        """Check each coarse pass against the oracle, and every order's bound against its length; returns the
        h_alpha calls each pass made."""
        passes = []
        screened, solve = renyi._coarse_order, renyi.h_alpha

        def counted(*args):
            passes[-1] += 1
            return solve(*args)

        def both(params, lengths):
            passes.append(0)
            monkeypatch.setattr(renyi, "h_alpha", counted)
            got = screened(params, lengths)
            monkeypatch.setattr(renyi, "h_alpha", solve)
            ell, *want = renyi_coarse_order(params, lengths)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            alphas = np.broadcast_to(renyi._COARSE_ALPHAS, ell.shape)
            vals, kink = renyi._grid_stage(renyi._outer_problem(params), alphas, renyi._SCREEN_STRIDE)
            assert (lengths(alphas, np.minimum(vals.min(axis=2), kink)) >= ell).all()
            return got

        monkeypatch.setattr(renyi, "_coarse_order", both)
        return passes

    def test_paper_point_and_sweeps(self, monkeypatch):
        # the analytic run's point, the benchmark sweep's two and the default 8-point grid
        passes = self.checked(monkeypatch)
        config = RunConfig(s_obs=2.612, q_obs=0.0285)
        for ns in ([config.n], [500_000, 10_000_000], config.sweep_n_grid):
            sweep_keyrate_vs_n(config, ns)
        assert len(passes) == 3

    def test_random_cells(self, monkeypatch):
        passes = self.checked(monkeypatch)
        params = list(random_cells(116, 30))
        key_length_renyi(params, 1e-5, [0.05 * pt.n for pt in params])
        assert len(passes) == 1

    def test_later_solve_pass(self, monkeypatch):
        # with one order solved first, each point whose second-best bound reaches the best length needs another pass
        monkeypatch.setattr(renyi, "_SCREEN_SOLVE", 1)
        passes = self.checked(monkeypatch)
        key_length_renyi([paper_params(), paper_params(10_000_000)], 1e-5, [paper_leak(), paper_leak(10_000_000)])
        assert passes[0] > 1

    def test_screen_values_are_the_grid_columns(self):
        # the bound rests on this: each screened value is the full grid's at its score, bit for bit
        params = [paper_params(), *random_cells(117, 5)]
        outer, alphas = renyi._outer_problem(params), np.broadcast_to(renyi._COARSE_ALPHAS, (len(params), 64))
        vals, kink = renyi._grid_stage(outer, alphas)
        got, got_kink = renyi._grid_stage(outer, alphas, renyi._SCREEN_STRIDE)
        j0 = renyi._J0
        assert np.array_equal(got, np.concatenate([vals[:, :, :j0], vals[:, :, j0 :: renyi._SCREEN_STRIDE]], axis=2))
        assert np.array_equal(got_kink, kink)


class TestBatch:
    """A batch of points equals one-point calls bit for bit: the solver and the golden steps are row-wise."""

    @pytest.mark.parametrize("seed", [111, 112])
    def test_h_alpha_on_random_cells(self, seed):
        # gamma and the box vary by point; shared orders, each point's own, and a lone order, whose scalar-like
        # exponent numpy rounds as sqrt and square at alpha = 2
        params = [paper_params(), *random_cells(seed, 7)]
        own = 1.0 + np.logspace(-4.0, 0.0, 16)[None, :] ** np.linspace(1.0, 2.0, len(params))[:, None]
        for alphas in (COARSE_ORDERS, np.minimum(own, 2.0), np.array([2.0]), np.array([1.3])):
            got = h_alpha(params, alphas)
            per_point = np.broadcast_to(alphas, (len(params), alphas.shape[-1]))
            want = [h_alpha([pt], a)[0] for pt, a in zip(params, per_point)]
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [111, 112])
    def test_certificate_on_random_cells(self, seed):
        params = [paper_params(), *random_cells(seed, 7)]
        alphas = [1.000401, 2.0, 1.01, 1.2, 2.0, 1.0004, 1.7, 2.0]
        got = certified_h_alpha(params, alphas)
        assert np.array_equal(got, [certified_h_alpha([pt], [alpha])[0] for pt, alpha in zip(params, alphas)])

    def test_kappa_at_order_two_rounds_as_a_lone_order(self):
        # a one-point call hands numpy a scalar order, and numpy takes a scalar exponent 1/2 or 2 as sqrt or
        # square; rows whose order varies must round the same (pow differs on about 3% of these rows)
        ws = np.linspace(0.5, TSIRELSON_WIN, 2001)
        w_key, w_rest = sift_weights(0.26, 0.13)
        orders = np.where(np.arange(len(ws)) % 2 == 0, 2.0, 1.3)
        got = renyi._kappa(ws, w_key, w_rest, (orders, 1.0 / orders, 2.0 ** (1.0 - orders)), 1.0 - orders, True)
        for alpha in (2.0, 1.3):
            on = orders == alpha
            terms = alpha, 1.0 / alpha, 2.0 ** (1.0 - alpha)
            assert np.array_equal(got[on], renyi._kappa(ws[on], w_key, w_rest, terms, 1.0 - alpha))

    def test_certificate_at_order_two_on_random_cells(self):
        # at seed 115 the fourth cell's bound moves by rounding if its kappa rows take numpy's power at alpha = 2
        params = list(random_cells(115, 8))
        got = certified_h_alpha(params, [2.0] * 8)
        assert np.array_equal(got, [certified_h_alpha([pt], [2.0])[0] for pt in params])

    def test_certificate_points_leave_at_their_own_rounds(self, monkeypatch):
        # n = 1e4 at alpha = 2 takes 10 rounds and the paper point at its order 4: the batch runs 10 rounds, and
        # the paper point's bound is the one it gets alone
        params, alphas = [paper_params(), paper_params(10_000)], [1.000401, 2.0]
        rounds = []
        solve = renyi._inner_min_vec
        monkeypatch.setattr(renyi, "_inner_min_vec", lambda *args: rounds.append(1) or solve(*args))
        alone = []
        for pt, alpha in zip(params, alphas):
            rounds.clear()
            alone.append((certified_h_alpha([pt], [alpha])[0], len(rounds)))
        rounds.clear()
        got = certified_h_alpha(params, alphas)
        assert [r for _, r in alone] == [4, 10] and len(rounds) == 10
        assert got.tolist() == [v for v, _ in alone]

    @pytest.mark.parametrize("alpha", [None, 1.01, 2.0])
    def test_key_length_on_random_cells_and_paper_point(self, alpha):
        params = [paper_params(), paper_params(10_000), *random_cells(113, 6)]
        leaks = [paper_leak(), paper_leak(10_000), *(0.05 * pt.n for pt in params[2:])]
        got = key_length_renyi(params, 1e-5, leaks, alpha=alpha)
        want = [key_length_renyi([pt], 1e-5, [lec], alpha=alpha)[0] for pt, lec in zip(params, leaks)]
        assert got == want
        if alpha is None:
            assert len({res.alpha for res in got}) > 1  # the points chose different orders

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="one row per point"):
            h_alpha([paper_params()] * 2, np.full((3, 4), 1.1))
        with pytest.raises(ValueError, match="one order per point"):
            certified_h_alpha([paper_params()] * 2, [1.1])
        with pytest.raises(ValueError, match="one leakage per point"):
            key_length_renyi([paper_params()] * 2, 1e-5, [paper_leak()])


class TestCertificate:
    """certified_h_alpha: a lower bound on the worst case over scores and box frequencies."""

    @pytest.mark.parametrize("am1", [1e-9, 1e-7, 4e-4, 1.0])
    def test_kappa_convex_in_mpmath(self, am1):
        # the cell bound's one lemma: every second difference of kappa on 401 points of [3/4, (2+sqrt2)/4] is positive
        with mpmath.workdps(50):
            alpha = 1 + mpmath.mpf(am1)
            ws = mpmath.linspace(mpmath.mpf(3) / 4, (2 + mpmath.sqrt(2)) / 4, 401)
            for ga, gb in ((0.26, 0.13), (0.02, 0.98), (0.9, 0.5)):
                w_key, w_rest = map(mpmath.mpf, sift_weights(ga, gb))
                kappa = []
                for w in ws:
                    r = mpmath.sqrt(min(max((8 * w - 4) ** 2 / 4 - 1, 0), 1))
                    br = ((1 - r) / 2) ** (1 / alpha) + ((1 + r) / 2) ** (1 / alpha)
                    kappa.append(mpmath.log(w_key * 2 ** (1 - alpha) * br**alpha + w_rest, 2) / (1 - alpha))
                assert min(kappa[i - 1] - 2 * kappa[i] + kappa[i + 1] for i in range(1, 400)) > 0, (ga, gb)

    @pytest.mark.parametrize("alpha", [1.000401, 1.01, 1.2])
    def test_below_estimate_and_dense_grid_at_paper_box(self, alpha):
        params = paper_params()
        (cert,) = certified_h_alpha([params], [alpha])
        est = h_alpha([params], np.array([alpha]))[0, 0]
        ws = np.array_split(np.linspace(0.5, TSIRELSON_WIN, 400_001), 8)  # in chunks to keep memory small
        dense = min(model_objective(alpha, w, 0.26, 0.13, *bounds(params)).min() for w in ws)
        assert cert <= est and cert <= dense
        # h_alpha evaluates the kink omega = 3/4, where the minimum sits at 1.01 and 1.2; the dense grid
        # misses it by up to half a spacing, about 1e-5 relative there
        assert cert >= est * (1.0 - 1e-9)

    @pytest.mark.parametrize("seed", [101, 102, 103, 104, 105])
    def test_random_cells_below_estimate(self, seed):
        orders = np.array([1.00001, 1.0004, 1.01, 2.0])
        for params in random_cells(seed, 30):
            for alpha, est in zip(orders, h_alpha([params], orders)[0]):
                (cert,) = certified_h_alpha([params], [alpha])
                # G >= 0, while h_alpha can round a zero minimum below it (-2e-12 on a cell of seed 103)
                assert math.isfinite(cert) and 0.0 <= cert <= max(est, 0.0), (params, alpha)

    def test_golden_step_count_moves_no_reported_byte(self, monkeypatch):
        # the certificate takes nothing from the estimate, so the step count could only move the chosen order
        config = RunConfig(analytic=True, s_obs=2.612, q_obs=0.0285)
        want = run_pipeline(config).to_json()
        monkeypatch.setattr(renyi, "_GOLDEN_STEPS", 50)
        assert run_pipeline(config).to_json() == want


class TestKeyLength:
    def test_paper_point(self):
        (res,) = key_length_renyi([paper_params()], 1e-5, [paper_leak()])
        assert res.rate == pytest.approx(0.112, abs=0.015)
        assert res.length == pytest.approx(135_300, abs=18_000)
        assert 1.0 < res.alpha <= 2.0

    def test_tight_soundness(self):
        (res,) = key_length_renyi([paper_params()], 1e-15, [paper_leak()])
        assert res.rate == pytest.approx(0.075, abs=0.015)

    def test_tiny_n_yields_nothing(self):
        n = 1000
        (res,) = key_length_renyi([paper_params(n)], 1e-5, [leak_ec(n, PAPER, 0.005)])
        assert res.raw_length <= 0.0
        assert res.length == 0.0

    def test_beats_accumulation_at_paper_block(self):
        (renyi,) = key_length_renyi([paper_params()], 1e-5, [paper_leak()])
        eat = key_length_eat(paper_params(), 1e-5, paper_leak())
        assert renyi.rate > eat.rate

    def test_below_sifted_asymptote(self):
        asym = asymptotic_rate_sifted(2.612, 0.0285, 0.26, 0.13)
        for n in (10**5, N_PAPER, 10**8):
            (res,) = key_length_renyi([paper_params(n)], 1e-5, [leak_ec(n, PAPER, 0.005)])
            assert res.rate < asym

    def test_fixed_alpha_evaluation(self):
        # an accepted run has at most n - box_lo_perp test rounds, each charged one bit
        params = paper_params()
        (res,) = key_length_renyi([params], 1e-5, [paper_leak()], alpha=1.001)
        assert res.alpha == 1.001
        assert res.raw_length == pytest.approx(
            N_PAPER * res.h_alpha
            - (N_PAPER - params.box_lo[2])
            - paper_leak()
            - 64.0
            - 1.001 / 0.001 * math.log2(1 / (1e-5 - EPS_EC))
            + 2.0,
            rel=1e-12,
        )
