"""Independent oracles used to freeze expected test values.

These deliberately avoid the code paths they check: binomial tails are
summed term by term with stdlib Decimal arithmetic at 60 significant
digits, starting from an exact integer binomial coefficient, in mpmath
from a log-gamma first term, or at p = 3/4 in integers outright; the
reference box takes its tails from scipy's incomplete beta functions.
The reference implementations below (bisection box, float threshold
test, one-pass generation, mask-based estimate, the masked row-per-cell
Renyi solver, the bitwise GF(2^128) product) are the straightforward
versions that the faster library code must reproduce exactly.
"""

import math
from decimal import Decimal, getcontext

import mpmath
import numpy as np
from scipy.special import betainc, betaincc

from diqkd.mathcore import TSIRELSON_WIN, golden_min
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


def accept_threshold_float(beta: float, params) -> bool:
    """The threshold test on the win frequency beta = wins / n, as a float comparison."""
    return beta >= params.gamma_a * params.gamma_b * params.omega_exp - params.delta


def generate_columns_oneshot(behavior, params):
    """The seven transcript columns from one pass over all n rounds."""
    rng = CounterRng(params.seed)
    n = params.n
    u_s = rng.round_uniforms(0, n, 0)
    u_x = rng.round_uniforms(0, n, 1)
    u_t = rng.round_uniforms(0, n, 2)
    u_y = rng.round_uniforms(0, n, 3)
    u_o = rng.round_uniforms(0, n, 4)

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
    """Worst case over scores: a 192-point grid in chunks of 8 orders, then 50 lockstep golden steps.

    alphas is a 1-d array of orders; returns one value per order.
    """
    grid = np.linspace(0.5, TSIRELSON_WIN, sigma_grid)
    vals = np.concatenate(
        [renyi_objective(alphas[j : j + order_chunk, None], grid, gamma_a, gamma_b, lo, hi)
         for j in range(0, len(alphas), order_chunk)]
    )
    i = np.argmin(vals, axis=1)
    lo_w, hi_w = grid[np.maximum(i - 1, 0)], grid[np.minimum(i + 1, len(grid) - 1)]
    _, fc, _, fd = golden_min(lambda ws: renyi_objective(alphas, ws, gamma_a, gamma_b, lo, hi), lo_w, hi_w, 50)
    return np.minimum(vals[np.arange(len(alphas)), i], np.minimum(fc, fd))
