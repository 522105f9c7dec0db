"""Numerically robust scalar primitives shared by every other module.

Entropies and divergences are in bits.  One binomial tail serves both
the p-values and the acceptance box: the pmf at the threshold from
Loader's saddle-point form, then a window of terms away from the mode
summed by the pmf-ratio recurrence, in log space throughout.  Tails far
below the smallest positive double (say 1e-316) keep full relative
accuracy, memory is O(sqrt(n)) rather than O(n), and no scipy is
imported.  All functions are pure and reentrant.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

__all__ = [
    "binary_entropy",
    "rel_entropy_binary",
    "binomial_tail",
    "binomial_box",
    "chsh_to_winprob",
    "golden_min",
    "TSIRELSON_CHSH",
    "TSIRELSON_WIN",
]

TSIRELSON_CHSH = 2.0 * math.sqrt(2.0)  # maximal quantum CHSH score
TSIRELSON_WIN = (2.0 + math.sqrt(2.0)) / 4.0  # the same bound as a game win probability


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2(1-p), with h(0) = h(1) = 0.

    The 0 log 0 = 0 convention is an explicit branch so that boundary
    inputs never produce NaN.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy requires p in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def rel_entropy_binary(p: float, q: float) -> float:
    """Binary KL divergence D[p||q] in bits.

    Returns +inf when the support condition fails (p > 0 with q = 0, or
    p < 1 with q = 1); callers treat that as a distinct sentinel.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"rel_entropy_binary requires p in [0, 1], got {p}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"rel_entropy_binary requires q in [0, 1], got {q}")
    if (p > 0.0 and q == 0.0) or (p < 1.0 and q == 1.0):
        return math.inf
    out = 0.0
    if p > 0.0:
        out += p * math.log2(p / q)
    if p < 1.0:
        out += (1.0 - p) * math.log2((1.0 - p) / (1.0 - q))
    return out


# ln m! - (m + 1/2) ln m + m - ln sqrt(2 pi) for m = 1..15, where the
# asymptotic series below is not yet accurate to a double (index 0 is unused)
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def _stirlerr(m: int) -> float:
    """The error of Stirling's formula for ln m!, to double precision."""
    if m <= 15:
        return _STIRLERR[m]
    mm = float(m) * m
    if m > 500:
        return (1 / 12 - 1 / 360 / mm) / m
    if m > 80:
        return (1 / 12 - (1 / 360 - 1 / 1260 / mm) / mm) / m
    if m > 35:
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / 1680 / mm) / mm) / mm) / m
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / mm) / mm) / mm) / mm) / m


def _bd0(x: int, m: float, d: float) -> float:
    """x ln(x/m) + m - x, given d = x - m, by its series in d/(x+m) when d is small.

    Taking the deviation d apart from m keeps the result accurate when
    m = n p is not a double: near the mode ln pmf depends on m through d.
    """
    if abs(d) >= 0.1 * (x + m):
        # ln(x/m) by log1p, or as a difference where x/m would overflow
        return x * (math.log1p(d / m) if d < 1e300 * m else math.log(x) - math.log(m)) - d
    v = d / (x + m)
    s, ej, v2 = d * v, 2.0 * x * v, v * v
    j = 1
    while True:
        ej *= v2
        s_next = s + ej / (2 * j + 1)
        if s_next == s:
            return s
        s, j = s_next, j + 1


def _ln_sum_from(n: int, k: int, num: int, den: int) -> float:
    """ln P[X >= k] for X ~ Binomial(n, num/den) and n num/den < k <= n.

    The first term is Loader's saddle-point pmf ("Fast and accurate
    computation of binomial probabilities", 2000), which has no
    ln n! - ln k! - ln (n-k)! cancellation; p enters as the exact ratio
    num/den, so k - n p and 1 - p carry no rounding.  Above the mean every
    term ratio t(i+1)/t(i) = (n-i) p / ((i+1) q) is below 1 and falls with
    i, so the terms past a window are below a geometric series with the
    window's last ratio.  The window starts where a normal tail has fallen
    by e^-48 and doubles until that bound is 2^-60 of the sum.
    """
    p, q = num / den, (den - num) / den
    if k == n:
        return n * (math.log1p(-q) if p > 0.5 else math.log(p))
    d = (k * den - n * num) / den  # k - n p, correctly rounded
    ln_first = (
        _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * p, d) - _bd0(n - k, n * q, -d)
        - 0.5 * math.log(2.0 * math.pi * k * (n - k) / n)
    )
    sigma = math.sqrt(n * p * q)
    z = d / sigma
    # sigma (sqrt(z^2 + 96) - z) terms, written without the cancellation at large z
    w = max(1, math.ceil(96.0 * sigma / (math.hypot(z, math.sqrt(96.0)) + z)))
    while True:
        w = min(w, n - k)
        i = np.arange(k, k + w, dtype=float)
        ln_rel = np.cumsum(np.log((n - i) * p / ((i + 1.0) * q)))  # ln t(k+1..k+w) / t(k)
        total = 1.0 + float(np.sum(np.exp(ln_rel)))
        if k + w == n:
            break
        ratio = (n - k - w) * p / ((k + w + 1) * q)
        if math.exp(ln_rel[-1]) * ratio / (1.0 - ratio) <= 2.0**-60 * total:
            break
        w *= 2
    return ln_first + math.log(total)


def _ln_tail(n: int, k: int, num: int, den: int) -> float:
    """ln P[X >= k] for X ~ Binomial(n, num/den), for any integer k.

    The smaller half is summed; the larger is the complement of the
    other, so both ends keep full relative accuracy.
    """
    if k <= 0 or num == den:
        return 0.0 if k <= n else -math.inf
    if k > n or num == 0:
        return -math.inf
    if k * den > n * num:
        return _ln_sum_from(n, k, num, den)
    # P[X >= k] = 1 - P[X <= k-1] = 1 - P[n - X >= n-k+1], with n - X ~ Binomial(n, 1 - p)
    return math.log1p(-math.exp(_ln_sum_from(n, n - k + 1, den - num, den)))


def binomial_tail(n: int, k: int, p0: float) -> float:
    """log2 of the upper tail P[X >= k] for X ~ Binomial(n, p0).

    Monotone nonincreasing in k, relatively accurate at both ends of the
    distribution and far below the smallest positive double.
    """
    if n < 0 or not 0 <= k <= n:
        raise ValueError(f"binomial_tail requires 0 <= k <= n, got n={n}, k={k}")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"binomial_tail requires p0 in [0, 1], got {p0}")
    if k == n and 0.0 < p0:
        return n * math.log2(p0)  # a single term, exactly
    return _ln_tail(n, k, *float(p0).as_integer_ratio()) / math.log(2.0)


def binomial_box(n: int, p: float, eps: float) -> tuple[int, int]:
    """Count thresholds (L, H) of Binomial(n, p) with both tails at most eps.

    L is the largest j in [0, n] with P[X < j] <= eps and H the smallest
    j in [0, n] with P[X > j] <= eps: an exact quantile inversion over
    integer thresholds.  At eps >= 1 every threshold qualifies, so the
    answer is (n, 0).
    """
    if n < 1:
        raise ValueError(f"binomial_box requires n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binomial_box requires p in [0, 1], got {p}")
    if not 0.0 < eps:
        raise ValueError(f"binomial_box requires eps > 0, got {eps}")
    if eps >= 1.0:
        return n, 0
    num, den = float(p).as_integer_ratio()
    ln_eps = math.log(eps)

    # P[X <= j-1] = P[n - X >= n-j+1] and P[X > j] = P[X >= j+1]
    def low_ok(j: int) -> bool:
        return _ln_tail(n, n - j + 1, den - num, den) <= ln_eps

    def upp_fails(j: int) -> bool:
        return _ln_tail(n, j + 1, num, den) > ln_eps

    # The thresholds sit within about half a count of the normal quantile
    # with Cornish-Fisher's skew term, n p -+ sigma z + (z^2 - 1)(1 - 2p)/6;
    # each guess is one count above its answer, where _last_true takes two calls.
    z = NormalDist().inv_cdf(eps)
    spread, skew = math.sqrt(n * p * (1.0 - p)) * z, (z * z - 1.0) * (1.0 - 2.0 * p) / 6.0
    # j = 0 always meets the lower tail; on the upper side j = n always
    # does, and j = -1 (P[X > -1] = 1) never
    low = _last_true(low_ok, n * p + spread + skew + 1.0, 0, n)
    upp = _last_true(upp_fails, n * p - spread + skew, -1, n - 1) + 1
    return low, upp


def _last_true(ok, guess: float, lo: int, hi: int) -> int:
    """Largest j in [lo, hi] with ok(j), for ok true from lo up to a point, false after.

    ok(lo) is taken as true whatever it returns.  Gallops from the guess,
    then bisects the bracket it found: a guess on the boundary costs two
    calls of ok, a far one O(log distance), and the answer is the one a
    bisection over [lo, hi] gives.
    """
    j = min(max(int(guess), lo), hi)
    step = 1
    if ok(j):
        good = j
        while good + step <= hi and ok(good + step):
            good, step = good + step, 2 * step
        bad = min(good + step, hi + 1)
    else:
        bad = j
        while bad - step >= lo and not ok(bad - step):
            bad, step = bad - step, 2 * step
        good = max(bad - step, lo)
    while bad - good > 1:
        mid = (good + bad) // 2
        if ok(mid):
            good = mid
        else:
            bad = mid
    return good


def golden_min(f, a, b, steps: int):
    """Golden-section search for a minimum of f on each bracket [a[i], b[i]].

    Every bracket is reduced in lockstep (``np.where`` on fc < fd; ties
    move the bracket right): f is called once per step with the array of
    new points and must return their values elementwise, and each bracket
    takes exactly the steps it would take alone.  Returns the two
    interior points left after ``steps`` reductions and their values,
    (c, f(c), d, f(d)); callers compare them with their own grid best.
    """
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        x = np.where(left, b - inv * (b - a), a + inv * (b - a))
        fx = f(x)
        c, fc = np.where(left, x, kept), np.where(left, fx, f_kept)
        d, fd = np.where(left, kept, x), np.where(left, f_kept, fx)
    return c, fc, d, fd


def chsh_to_winprob(s: float) -> float:
    """CHSH value to game winning probability: omega = 1/2 + S/8."""
    if not -4.0 <= s <= 4.0:
        raise ValueError(f"CHSH value must lie in [-4, 4], got {s}")
    return 0.5 + s / 8.0

