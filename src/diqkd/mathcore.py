"""Numerically robust scalar primitives shared by every other module.

Everything here is expressed in bits (base-2 logarithms).  The binomial
tail machinery works entirely in log space so that p-values far below
the smallest positive double (say 1e-316) keep full relative accuracy.
All functions are pure and reentrant.

Only ``scipy.special`` is imported, never ``scipy.stats``: importing
scipy.stats would add about a second and 45 MB of resident memory to
every command's start-up, for a binomial quantile search that the
incomplete-beta ufuncs answer directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import bdtrik, betainc, betaincc, gammaln

__all__ = [
    "LogNumber",
    "Distribution3",
    "binary_entropy",
    "rel_entropy_binary",
    "kl_divergence3",
    "binomial_tail",
    "binomial_box",
    "chsh_to_winprob",
    "winprob_to_chsh",
    "golden_min",
    "TSIRELSON_CHSH",
    "TSIRELSON_WIN",
]

_LOG2_10 = math.log2(10.0)
TSIRELSON_CHSH = 2.0 * math.sqrt(2.0)  # maximal quantum CHSH score
TSIRELSON_WIN = (2.0 + math.sqrt(2.0)) / 4.0  # the same bound as a game win probability


@dataclass(frozen=True)
class LogNumber:
    """A nonnegative quantity stored as its base-2 logarithm.

    Exact zero is represented by ``log2_value == -inf``, which float
    arithmetic propagates correctly through multiplication.  Quantities
    as small as 1e-400 (far below double underflow) round-trip through
    the log representation without loss.
    """

    log2_value: float

    @classmethod
    def from_value(cls, x: float) -> "LogNumber":
        if x < 0:
            raise ValueError(f"LogNumber requires a nonnegative value, got {x}")
        if x == 0:
            return cls(-math.inf)
        return cls(math.log2(x))

    @classmethod
    def from_log10(cls, log10_value: float) -> "LogNumber":
        return cls(log10_value * _LOG2_10)

    @classmethod
    def zero(cls) -> "LogNumber":
        return cls(-math.inf)

    @property
    def is_zero(self) -> bool:
        return self.log2_value == -math.inf

    @property
    def value(self) -> float:
        """The plain float value; underflows to 0.0 below ~1e-308."""
        if self.is_zero:
            return 0.0
        return 2.0 ** self.log2_value

    @property
    def log10(self) -> float:
        return self.log2_value / _LOG2_10

    def __mul__(self, other: "LogNumber") -> "LogNumber":
        return LogNumber(self.log2_value + other.log2_value)

    def __le__(self, other: "LogNumber") -> bool:
        return self.log2_value <= other.log2_value

    def __lt__(self, other: "LogNumber") -> bool:
        return self.log2_value < other.log2_value


@dataclass(frozen=True)
class Distribution3:
    """Probabilities over the per-round test outcome alphabet {0, 1, perp}."""

    q0: float
    q1: float
    q_perp: float

    def __post_init__(self) -> None:
        for name, v in (("q0", self.q0), ("q1", self.q1), ("q_perp", self.q_perp)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        s = self.q0 + self.q1 + self.q_perp
        if abs(s - 1.0) > 1e-12:
            raise ValueError(f"entries sum to {s}, not 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.q0, self.q1, self.q_perp], dtype=float)

    @classmethod
    def from_array(cls, a) -> "Distribution3":
        return cls(float(a[0]), float(a[1]), float(a[2]))


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


def kl_divergence3(q: Distribution3, p: Distribution3) -> float:
    """KL divergence in bits between two distributions over {0, 1, perp}.

    +inf is returned when supp(q) is not contained in supp(p).
    """
    out = 0.0
    for qc, pc in zip(q.as_array(), p.as_array()):
        if qc == 0.0:
            continue
        if pc == 0.0:
            return math.inf
        out += qc * math.log2(qc / pc)
    return out


def _log2_pmf_range(n: int, k_lo: int, k_hi: int, p0: float) -> np.ndarray:
    """log2 of Binomial(n, p0) pmf on the integer range [k_lo, k_hi]."""
    i = np.arange(k_lo, k_hi + 1, dtype=np.float64)
    log2p = math.log2(p0)
    log2q = math.log2(1.0 - p0)
    lgc = gammaln(n + 1.0) - gammaln(i + 1.0) - gammaln(n - i + 1.0)
    return lgc / math.log(2.0) + i * log2p + (n - i) * log2q


def _log2_sum(log2_terms: np.ndarray) -> float:
    """log2 of a sum of positive terms given in log2, anchored at the maximum.

    fsum of the exp2-shifted terms is the compensated accumulation; the
    dominant term carries weight exactly 1 so relative accuracy survives
    at the 1e-316 scale.
    """
    m = float(log2_terms.max())
    s = math.fsum(np.exp2(log2_terms - m).tolist())
    return m + math.log2(s)


def binomial_tail(n: int, k: int, p0: float) -> LogNumber:
    """Exact upper tail P[X >= k] for X ~ Binomial(n, p0), in log space.

    Monotone nonincreasing in k.  When the tail is the larger half it is
    computed through the log-space complement of the lower sum, so the
    result stays relatively accurate on both ends of the distribution.
    """
    if n < 0 or not 0 <= k <= n:
        raise ValueError(f"binomial_tail requires 0 <= k <= n, got n={n}, k={k}")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"binomial_tail requires p0 in [0, 1], got {p0}")
    if k == 0:
        return LogNumber(0.0)
    if p0 == 0.0:
        return LogNumber.zero()
    if p0 == 1.0:
        return LogNumber(0.0)
    if k == n:
        # single term: exactly n*log2(p0)
        return LogNumber(n * math.log2(p0))
    upper = _log2_sum(_log2_pmf_range(n, k, n, p0))
    lower = _log2_sum(_log2_pmf_range(n, 0, k - 1, p0))
    if upper <= lower:
        return LogNumber(min(upper, 0.0))
    # tail = 1 - lower, with the lower sum known to full relative accuracy
    x = 2.0 ** lower
    if x >= 1.0:
        # roundoff collision at the 50/50 split; fall back to the direct sum
        return LogNumber(min(upper, 0.0))
    return LogNumber(math.log1p(-x) / math.log(2.0))


def binomial_box(n: int, p: float, eps: float) -> tuple[float, float]:
    """Smallest deviations (delta_low, delta_upp) with both binomial tails <= eps.

    delta_low is the smallest nonnegative value such that
    P[freq < p - delta_low] <= eps under Binomial(n, p) frequencies, and
    delta_upp likewise for P[freq > p + delta_upp].  The meaningful
    candidates live on the grid where n*(p -+ delta) crosses integers, so
    the search is an exact quantile inversion over integer thresholds.
    """
    if n < 1:
        raise ValueError(f"binomial_box requires n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binomial_box requires p in [0, 1], got {p}")
    if not 0.0 < eps:
        raise ValueError(f"binomial_box requires eps > 0, got {eps}")
    if eps >= 1.0:
        return 0.0, 0.0

    # P[X <= k] = 1 - I_p(k+1, n-k) and P[X > k] = I_p(k+1, n-k), the
    # regularized incomplete beta that scipy.stats.binom evaluates too.
    # k = -1 is outside the beta's domain (at p = 0 it gives P[X > -1] = 0);
    # _last_true never lets the predicate at its lower end change the answer.
    def low_ok(j: int) -> bool:
        return float(betaincc(j, n - j + 1, p)) <= eps

    def upp_fails(j: int) -> bool:
        return float(betainc(j + 1, n - j, p)) > eps

    # largest integer j in [0, n] with P[X <= j-1] <= eps; then
    # delta_low = max(0, p - j/n).  j = 0 is always feasible.  The guess
    # is the continuous k with P[X <= k] = eps, rounded up.
    j = _last_true(low_ok, float(bdtrik(eps, n, p)) + 1.0, 0, n)
    delta_low = max(0.0, p - j / n)

    # smallest integer j in [-1, n] with P[X > j] <= eps; then
    # delta_upp = max(0, j/n - p).  j = n is always feasible, j = -1 never.
    # P[X > j] = P[Y <= n-1-j] for Y ~ Binomial(n, 1-p), so the guess is
    # the mirrored lower quantile (1 - eps would round to 1 for tiny eps).
    j = _last_true(upp_fails, n - 1.0 - float(bdtrik(eps, n, 1.0 - p)), -1, n - 1) + 1
    delta_upp = max(0.0, j / n - p)
    return delta_low, delta_upp


def _last_true(ok, guess: float, lo: int, hi: int) -> int:
    """Largest j in [lo, hi] with ok(j), for ok true from lo up to a point, false after.

    ok(lo) is taken as true whatever it returns.  Gallops from the guess
    (lo if it is not finite), then
    bisects the bracket it found: a guess on the boundary costs two calls
    of ok, a far one O(log distance), and the answer is the one a
    bisection over [lo, hi] gives.
    """
    j = min(max(int(guess), lo), hi) if math.isfinite(guess) else lo
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


def winprob_to_chsh(omega: float) -> float:
    """Inverse of chsh_to_winprob; round-trips exactly."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"winning probability must lie in [0, 1], got {omega}")
    return 8.0 * (omega - 0.5)
