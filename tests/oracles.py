"""Independent oracles used to freeze expected test values.

These deliberately avoid the code paths they check: binomial tails are
summed term by term with stdlib Decimal arithmetic at 60 significant
digits, starting from an exact integer binomial coefficient.  The
reference implementations below (bisection box, one-pass generation,
mask-based estimate) are the straightforward versions that the faster
library code must reproduce exactly.
"""

import math
from decimal import Decimal, getcontext

import numpy as np
from scipy.stats import binom

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


def binomial_box_bisect(n: int, p: float, eps: float) -> tuple[float, float]:
    """The binomial box by bisection over [0, n] on each tail's predicate."""
    if eps >= 1.0:
        return 0.0, 0.0
    # largest j in [0, n] with P[X <= j-1] <= eps
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if float(binom.cdf(mid - 1, n, p)) <= eps:
            lo = mid
        else:
            hi = mid - 1
    delta_low = max(0.0, p - lo / n)
    # smallest j in [-1, n] with P[X > j] <= eps
    lo, hi = -1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if float(binom.sf(mid, n, p)) <= eps:
            hi = mid
        else:
            lo = mid + 1
    delta_upp = max(0.0, lo / n - p)
    return delta_low, delta_upp


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
