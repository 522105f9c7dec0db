"""Independent oracles used to freeze expected test values.

These deliberately avoid the code paths they check: binomial tails are
summed term by term with stdlib Decimal arithmetic at 60 significant
digits, starting from an exact integer binomial coefficient, in mpmath
from a log-gamma first term, or at p = 3/4 in integers outright; the
reference box takes its tails from scipy's incomplete beta functions.
The reference implementations below (bisection box, float threshold
test, stepped threshold count, the per-setting behavior table, the
one-call-per-step golden-section search, uniforms from the generator's
words, one-pass generation, the cell counts of columns, mask-based
estimate, the masked row-per-cell Renyi solver, the coarse order search over every order,
the term-by-term accumulation length and its split search, the bitwise
GF(2^128) product) are the straightforward versions that the faster
library code must reproduce exactly.  The sifted Renyi entropy bound is
written out from the closed form in the renyi module docstring, and the
kernel's kappa must agree with it to 1e-12 relative.  The accumulation length is
self-contained: of the library it calls only the certificate primitives gamma_eff, g_func,
g_slope and f_func, which have closed-form tests of their own (its split search maps
fractions to splits with the library's _split_from_fractions).
"""

import math
from decimal import Decimal, getcontext

import mpmath
import numpy as np
from scipy.special import betainc, betaincc

from diqkd import eat, protocol, renyi
from diqkd.mathcore import TSIRELSON_WIN
from diqkd.protocol import PERP
from diqkd.rng import CounterRng


def log2_binomial_tail(n: int, k: int, p: float) -> float:
    """log2 of P[X >= k] for X ~ Binomial(n, p), by direct Decimal summation."""
    if k == 0:
        return 0.0
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return 0.0
    getcontext().prec = 60
    pd = Decimal(p)
    qd = 1 - pd
    term = Decimal(math.comb(n, k)) * pd**k * qd ** (n - k)
    total = term
    for i in range(k, n):
        term = term * pd * (n - i) / (qd * (i + 1))
        total += term
        if term < total * Decimal("1e-45"):
            break
    return float(total.ln() / Decimal(2).ln())


def log2_binomial_tail_mp(n: int, k: int, p: float) -> float:
    """log2 of P[X >= k] for k above the mean, summed in mpmath at 60 digits.

    The first term comes from log-gamma, so n may be far too large for an
    exact binomial coefficient.
    """
    with mpmath.workdps(60):
        pm = mpmath.mpf(p)
        qm = 1 - pm
        ln_first = (
            mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
            + k * mpmath.log(pm) + (n - k) * mpmath.log(qm)
        )
        term = total = mpmath.mpf(1)
        for i in range(k, n):
            term *= (n - i) * pm / ((i + 1) * qm)
            total += term
            if term < total * mpmath.mpf("1e-45"):
                break
        return float((ln_first + mpmath.log(total)) / mpmath.log(2))


def log10_tail_three_quarters(n: int, k: int) -> float:
    """log10 of P[X >= k] for X ~ Binomial(n, 3/4): sum C(n, i) 3^i / 4^n in integers."""
    term = math.comb(n, k) * 3**k
    total = term
    for i in range(k, n):
        term = term * (n - i) // (i + 1) * 3
        total += term
    # total / 2^(2n) from its leading 64 bits; the exponent stays an exact integer
    shift = total.bit_length() - 64
    return (math.log2(total >> shift) + (shift - 2 * n)) * math.log10(2.0)


def binomial_cdf(n: int, j: int, p: float) -> float:
    """P[X <= j] by Decimal summation (exact enough to order tail checks)."""
    if j < 0:
        return 0.0
    if j >= n:
        return 1.0
    getcontext().prec = 60
    pd = Decimal(p)
    qd = 1 - pd
    term = qd**n
    total = term
    for i in range(0, j):
        term = term * pd * (n - i) / (qd * (i + 1))
        total += term
    return float(total)


def binomial_box_bisect(n: int, p: float, eps: float) -> tuple[int, int]:
    """The binomial box's count thresholds by bisection over [0, n] on each tail's predicate.

    P[X <= j-1] = 1 - I_p(j, n-j+1) and P[X > j] = I_p(j+1, n-j), the
    regularized incomplete beta; scipy's came within 3.5e-16 relative of
    exact sums on 2,663 points with n <= 1e6.
    """
    # largest j in [0, n] with P[X <= j-1] <= eps
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if float(betaincc(mid, n - mid + 1, p)) <= eps:
            lo = mid
        else:
            hi = mid - 1
    low = lo
    # smallest j in [0, n] with P[X > j] <= eps
    lo, hi = -1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if mid >= 0 and float(betainc(mid + 1, n - mid, p)) <= eps:
            hi = mid
        else:
            lo = mid + 1
    return low, lo


def behavior_table_loop(rho, readout_flip: float) -> np.ndarray:
    """The behavior table setting by setting: each outcome pair's projector by np.kron, its expectation,
    then clip, normalise and flip each setting's 2x2 block."""
    table = np.empty((2, 3, 2, 2))
    eye = np.eye(2, dtype=complex)
    for x, a_axis in enumerate(protocol._X_AXES):
        for y, b_axis in enumerate(protocol._Y_AXES):
            pa = [(eye + s * a_axis.operator()) / 2.0 for s in (+1.0, -1.0)]
            pb = [(eye + s * b_axis.operator()) / 2.0 for s in (+1.0, -1.0)]
            probs = np.array([[np.trace(rho.matrix @ np.kron(pi, pj)).real for pj in pb] for pi in pa])
            probs = np.clip(probs, 0.0, 1.0)
            probs /= probs.sum()
            r = readout_flip
            if r > 0.0:
                flip = np.array([[1.0 - r, r], [r, 1.0 - r]])
                probs = flip @ probs @ flip.T
            table[x, y] = probs
    return table


def golden_min_stepwise(f, a, b, steps: int):
    """Lockstep golden-section search with one call of f per step (see mathcore.golden_min)."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = f(np.stack([c, d]))
    for _ in range(steps):
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        x = np.where(left, b - inv * (b - a), a + inv * (b - a))
        fx = f(x)
        c, fc = np.where(left, x, kept), np.where(left, fx, f_kept)
        d, fd = np.where(left, kept, x), np.where(left, f_kept, fx)
    return c, fc, d, fd


def accept_threshold_float(beta: float, params) -> bool:
    """The threshold test on the win frequency beta = wins / n, as a float comparison."""
    return beta >= params.gamma_a * params.gamma_b * params.omega_exp - params.delta


def win_min_stepping(params) -> int:
    """Least k with k / n >= the threshold, stepped one count at a time from ceil(thr n)."""
    n, thr = params.n, params.gamma_a * params.gamma_b * params.omega_exp - params.delta
    k = max(math.ceil(thr * n), 0)
    while k > 0 and (k - 1) / n >= thr:
        k -= 1
    while k / n < thr:
        k += 1
    return k


def uniforms(rng, start_round: int, n_rounds: int, slot: int) -> np.ndarray:
    """One double per round for a fixed slot, rounds [start, start + n): u = (z >> 11) * 2^-53 of each word z."""
    words = rng.round_words(start_round, range(slot, slot + 1), np.empty((1, n_rounds), dtype=np.uint64))
    return (words[0] >> np.uint64(11)) * 2.0**-53


def generate_columns_oneshot(behavior, params):
    """The seven transcript columns from one pass over all n rounds."""
    rng = CounterRng(params.seed)
    u_s, u_x, u_t, u_y, u_o = (uniforms(rng, 0, params.n, slot) for slot in range(5))

    s = (u_s >= params.gamma_a).astype(np.int8)
    t = (u_t >= params.gamma_b).astype(np.int8)
    x = np.where(s == 0, (u_x >= 0.5).astype(np.int8), np.int8(0))
    y = np.where(t == 0, (u_y >= 0.5).astype(np.int8), np.int8(2))

    flat = behavior.table.reshape(6, 4)
    cum = np.cumsum(flat, axis=1)
    cum[:, -1] = 1.0
    cell = x.astype(np.intp) * 3 + y.astype(np.intp)
    idx = (u_o[:, None] >= cum[cell, :3]).sum(axis=1)
    a = (idx >> 1).astype(np.int8)
    b = (idx & 1).astype(np.int8)

    test = (s == 0) & (t == 0)
    win = ((a ^ b) == (x & y)).astype(np.int8)
    c = np.where(test, win, np.int8(PERP))
    return s, t, x, y, a, b, c


def cell_counts(columns):
    """The 96-cell count tensor of per-round columns (s, t, x, y, a, b, ...), the input ``protocol.estimate`` sums."""
    s, t, x, y, a, b = (np.asarray(col, dtype=np.intp) for col in columns[:6])
    return np.bincount(s * 48 + t * 24 + x * 12 + y * 4 + a * 2 + b, minlength=96)


def estimate_masks(tr):
    """(s_hat, s_err, q_hat, q_err, counts, flagged) from boolean masks over the rounds."""
    test = (tr.s == 0) & (tr.t == 0)
    flagged = False
    e = np.zeros((2, 2))
    var = np.zeros((2, 2))
    for x in range(2):
        for y in range(2):
            m = test & (tr.x == x) & (tr.y == y)
            n_xy = int(np.count_nonzero(m))
            if n_xy == 0:
                flagged = True
                continue
            agree = int(np.count_nonzero(tr.a[m] == tr.b[m]))
            e[x, y] = 2.0 * agree / n_xy - 1.0
            var[x, y] = max(1.0 - e[x, y] ** 2, 1.0 / n_xy) / n_xy
    s_hat = e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]
    s_err = float(np.sqrt(var.sum()))

    key = (tr.x == 0) & (tr.y == 2)
    n_key = int(np.count_nonzero(key))
    if n_key == 0:
        flagged = True
        q_hat, q_err = math.nan, math.nan
    else:
        q_hat = float(np.count_nonzero(tr.a[key] != tr.b[key])) / n_key
        q_err = math.sqrt(max(q_hat * (1.0 - q_hat), 1.0 / n_key) / n_key)

    counts = (
        int(np.count_nonzero(tr.c == 0)),
        int(np.count_nonzero(tr.c == 1)),
        int(np.count_nonzero(tr.c == PERP)),
    )
    return float(s_hat), s_err, q_hat, q_err, counts, flagged


def gf128_mul_bitwise(x: int, y: int) -> int:
    """Carry-less product reduced by x^128 + x^7 + x^2 + x + 1, one bit of y at a time."""
    poly = (1 << 128) | (1 << 7) | (1 << 2) | (1 << 1) | 1
    out = 0
    while y:
        if y & 1:
            out ^= x
        y >>= 1
        x <<= 1
        if x >> 128:
            x ^= poly
    return out


def renyi_sifted_bound(alpha, gamma_a, gamma_b, s):
    """The sifted Renyi entropy bound, one broadcast expression per term (no validation)."""
    s, a = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(alpha, dtype=float))
    r = np.sqrt(np.clip(s * s / 4.0 - 1.0, 0.0, 1.0))
    bracket = ((1.0 - r) / 2.0) ** (1.0 / a) + ((1.0 + r) / 2.0) ** (1.0 / a)
    factor = np.where(s > 2.0, 2.0 ** (1.0 - a) * bracket**a, 1.0)
    gg = gamma_a * gamma_b
    w_key = (1.0 - gamma_b - 0.5 * gamma_a * (1.0 - gamma_b)) / (1.0 - gg)
    w_rest = ((1.0 - gamma_a) * gamma_b + 0.5 * gamma_a * (1.0 - gamma_b)) / (1.0 - gg)
    return np.log2(w_key * factor + w_rest) / (1.0 - np.asarray(alpha, dtype=float))


def renyi_inner_min(p, lo, hi, kappa, alpha):
    """Inner minimum of D(q||p)/(alpha-1) + q_perp kappa over the box, one row (p_0, p_1, p_perp) per cell.

    Support masks on every row, np.clip against the box, +inf for a cell
    the box cannot feed.
    """
    pw = p.copy()
    pw[:, 2] = p[:, 2] * 2.0 ** (-(alpha - 1.0) * kappa)
    support = p > 0.0
    forced_bad = (~support) & (lo[None, :] > 0.0)
    infeasible = forced_bad.any(axis=1)
    infeasible |= np.where(support, hi[None, :], 0.0).sum(axis=1) < 1.0 - 1e-12

    def clipped(t):
        q = np.clip(pw[:, None, :] * t[:, :, None], lo, hi)
        return np.where(support[:, None, :], q, 0.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        breaks = np.where(np.tile(support, 2), np.concatenate([lo / pw, hi / pw], axis=1), 0.0)
    breaks.sort(axis=1)
    mass = clipped(breaks).sum(axis=2)
    k = np.argmax(mass >= np.minimum(mass[:, -1:], 1.0), axis=1)
    rows = np.arange(len(p))
    t1, m1 = breaks[rows, k], mass[rows, k]
    t0, m0 = breaks[rows, k - 1], mass[rows, k - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(k > 0, t0 + (1.0 - m0) * (t1 - t0) / (m1 - m0), t1)
    q = clipped(t[:, None])[:, 0, :]
    q /= np.where(infeasible, 1.0, q.sum(axis=1))[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0.0, q * np.log2(np.maximum(q, 1e-300) / np.maximum(p, 1e-300)), 0.0)
    obj = terms.sum(axis=1) / (alpha - 1.0) + q[:, 2] * kappa
    return np.where(infeasible, np.inf, obj)


def renyi_objective(alphas, ws, gamma_a, gamma_b, lo, hi):
    """Inner minimum at the model distribution of score ws, for orders alphas (broadcast)."""
    alphas, ws = np.broadcast_arrays(alphas, ws)
    gg = gamma_a * gamma_b
    s = 8.0 * (ws - 0.5)
    kappa = np.where(s > 2.0, renyi_sifted_bound(alphas, gamma_a, gamma_b, s), 0.0)
    p = np.stack([gg * (1.0 - ws), gg * ws, np.full_like(ws, 1.0 - gg)], axis=-1)
    return renyi_inner_min(p.reshape(-1, 3), lo, hi, kappa.ravel(), alphas.ravel()).reshape(ws.shape)


def renyi_h_alpha(alphas, gamma_a, gamma_b, lo, hi, sigma_grid=192, order_chunk=8):
    """Worst case over scores: a 192-point grid in chunks of 8 orders, lockstep golden steps, and the kink 3/4.

    The step count is the library's renyi._GOLDEN_STEPS.  alphas is a
    1-d array of orders; returns one value per order.
    """
    grid = np.linspace(0.5, TSIRELSON_WIN, sigma_grid)
    vals = np.concatenate(
        [renyi_objective(alphas[j : j + order_chunk, None], grid, gamma_a, gamma_b, lo, hi)
         for j in range(0, len(alphas), order_chunk)]
    )
    i = np.argmin(vals, axis=1)
    lo_w, hi_w = grid[np.maximum(i - 1, 0)], grid[np.minimum(i + 1, len(grid) - 1)]

    def objective(ws):
        return renyi_objective(alphas, ws, gamma_a, gamma_b, lo, hi)

    _, fc, _, fd = golden_min_stepwise(objective, lo_w, hi_w, renyi._GOLDEN_STEPS)
    kink = objective(np.full(len(alphas), 0.75))
    return np.minimum(np.minimum(vals[np.arange(len(alphas)), i], kink), np.minimum(fc, fd))


def renyi_coarse_order(params, lengths):
    """The coarse order search without a screen: every coarse order's length, each point's first best and its order.

    lengths(alphas, ha) is key_length_renyi's raw length at orders alphas
    and estimates ha; every order is solved in one h_alpha call.
    """
    alphas = np.broadcast_to(renyi._COARSE_ALPHAS, (len(params), renyi._ALPHA_GRID))
    ell = lengths(alphas, renyi.h_alpha(params, alphas))
    i, k = np.argmax(ell, axis=1), np.arange(len(ell))
    return ell, ell[k, i], alphas[k, i]


def eat_eta(omega, omega_t, eps, eps_e, n, gamma_a, gamma_b):
    """Accumulated entropy per round after the second-order penalty, at cut point omega_t.

    gamma_eff f(omega, omega_t) minus (2/sqrt n)(log2 9 + ceil(gamma_eff
    g'(omega_t))) sqrt(1 - 2 log2(eps eps_e)).
    """
    ge = eat.gamma_eff(gamma_a, gamma_b)
    grad = math.ceil(ge * eat.g_slope(omega_t))
    pen = (2.0 / math.sqrt(n)) * (math.log2(9.0) + grad) * math.sqrt(1.0 - 2.0 * math.log2(eps * eps_e))
    return ge * eat.f_func(omega, omega_t) - pen


def eat_cut_point(omega_in):
    """The smallest cut point w_t >= omega_in, held 1e-9 above 3/4 and 2e-9 below (2+sqrt2)/4 in two steps."""
    lowest, highest = 0.75 + 1e-9, TSIRELSON_WIN - 1e-9
    w = max(lowest, omega_in)
    return w if w < highest else highest - 1e-9


def eat_eta_opt(omega_in, eps, eps_e, n, gamma_a, gamma_b):
    """eat_eta at the smallest cut point, clamped at 0; 0 at or below omega_in = 3/4."""
    if omega_in <= 0.75:
        return 0.0
    return max(eat_eta(omega_in, eat_cut_point(omega_in), eps, eps_e, n, gamma_a, gamma_b), 0.0)


def eat_ell_for_split(params, split, omega_in, lec):
    """Raw accumulation length of a full split (eps_pa, eps_s, eps_s_prime, eps_s_dprime, eps_ea), term by term."""
    n = params.n
    eps_pa, eps_s, eps_s_prime, eps_s_dprime, eps_ea = split
    eps_e = eps_ea + eat.EPS_EC
    eo = eat_eta_opt(omega_in, eps_s_prime, eps_e, n, params.gamma_a, params.gamma_b)
    eps_rem = eps_s - eps_s_prime - 2.0 * eps_s_dprime
    return (
        n * eo
        - lec
        - eat.LEAK_EV_BITS
        - 2.0 * (1.0 - 2.0 * math.log2(eps_rem))
        - params.gamma_a * params.gamma_b * n
        - math.sqrt(n) * math.log2(5.0) * math.sqrt(1.0 - 2.0 * math.log2(eps_s_dprime * eps_e))
        - 2.0 * math.log2(1.0 / eps_pa)
    )


def eat_key_length_search(params, eps_snd, lec):
    """(length, raw length, splits, cut point) of key_length_eat's split search, every candidate from eat_ell_for_split.

    The same coordinate descent: 16-point log grids over the fractions
    (a, d, b, c), two full-span passes, then two passes one decade either
    side of the best point.
    """
    omega_in = params.omega_exp - params.delta / eat.gamma_eff(params.gamma_a, params.gamma_b)
    fr = {"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5}
    spans = {k: (1e-6, 1.0 - 1e-6) for k in fr}

    def evaluate(trial):
        return eat_ell_for_split(params, eat._split_from_fractions(eps_snd, trial), omega_in, lec)

    best_val = evaluate(fr)
    for sweep in range(4):
        if sweep >= 2:
            spans = {k: (max(1e-9, fr[k] / 10.0), min(1.0 - 1e-9, fr[k] * 10.0)) for k in fr}
        for key in ("a", "d", "b", "c"):
            lo, hi = spans[key]
            for cand in np.logspace(math.log10(lo), math.log10(hi), 16):
                trial = dict(fr)
                trial[key] = float(cand)
                v = evaluate(trial)
                if v > best_val:
                    best_val, fr = v, trial
    split = eat._split_from_fractions(eps_snd, fr)
    raw = eat_ell_for_split(params, split, omega_in, lec)
    return max(raw, 0.0), raw, dict(zip(eat._SPLIT_FIELDS, split)), eat_cut_point(omega_in)


def delta_for_completeness_200(n, gamma_a, gamma_b, omega_exp, target):
    """eat.delta_for_completeness as 200 bisection steps, with no early stop."""
    mean = gamma_a * gamma_b * omega_exp
    lo, hi = 0.0, mean * (1.0 - 1e-15)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if eat.completeness_ea(n, mean - mid, gamma_a, gamma_b, omega_exp) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
