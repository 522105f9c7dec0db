"""The acceptance test and Monte-Carlo protocol transcripts: generation, sifting, estimation.

A run's acceptance test is its ProtocolParams, built once: the
threshold test accepts at least ``win_min`` wins, and the box test
accepts (lose, win, no-test) counts inside [box_lo, box_hi], the count
bounds ``build_acceptance_set`` finds.  ``accept`` applies both to a
run's counts in integers, and both key lengths are certified for them.

Round structure (one party holds two settings, the other three):

* flag ``s``: 0 with probability gamma_a (test round, setting x drawn
  uniformly from {0, 1}); 1 otherwise (key round, x = 0).
* flag ``t``: 0 with probability gamma_b (test round, y uniform in
  {0, 1}); 1 otherwise (key round, y = 2, the basis aligned with x = 0).
* c is the game payoff on rounds that are tests for both parties and the
  placeholder PERP everywhere else.

Sifting deterministically zeroes the outcomes of the two round classes
that are useless for both key and test: (s, t) = (1, 0), and
(s, t, x, y) = (0, 1, 1, 2).  Key-round outcomes of the three-setting
party are never published; reconciliation replaces them downstream, so
no further zeroing happens here.  The pipeline does not sift: neither
class is a test round (s = t = 0) or a key round ((x, y) = (0, 2)), so
no estimate, statistic or acceptance test reads the outcomes it zeroes,
and the dilution it models is already in the analytic rates.  ``sift``
stays as a public, output-invariant function and a benchmark target.

Generation is vectorized over a counter-based generator, so disjoint
round ranges produced in parallel are bit-identical to a sequential run.
``simulate_rounds`` streams the rounds CHUNK_ROUNDS at a time through
one reused chunk of int8 columns, so its 64-bit temporaries stay in
cache and its memory is one chunk, whatever n is.  Each chunk draws its
five slots as one block of 53-bit words w into one reused buffer.  The
uniform is u = w * 2^-53 exactly, so u >= c exactly when
w >= ceil(c * 2^53): the test fractions, 1/2 and the outcome cumulants
become integer thresholds once per run, and no word is converted to a
float.  ``estimate`` reduces a stream of column blocks, or a stored
Transcript, to a count tensor over the 96 cells (s, t, x, y, a, b), one
``bincount`` per block, and reads every figure from it; the simulated
pipeline never holds an n-long column.  ``generate_transcript`` copies
the same stream into full columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .mathcore import TSIRELSON_WIN, binomial_box
from .quantum import TwoQubitState, X_AXIS, Z_AXIS, diag_axis, outcome_distribution
from .rng import CounterRng

__all__ = [
    "PERP",
    "TSIRELSON_WIN",
    "ProtocolParams",
    "build_acceptance_set",
    "Behavior",
    "Transcript",
    "behavior_from_state",
    "simulate_rounds",
    "generate_transcript",
    "sift",
    "test_statistic",
    "accept",
    "EstimateResult",
    "estimate",
]

PERP = 2  # placeholder value of the test outcome c on non-test rounds
CHUNK_ROUNDS = 1 << 13  # rounds generated per pass; their temporaries stay in cache
COUNT_ROUNDS = 1 << 16  # rounds per count-tensor block of a stored Transcript


@dataclass(frozen=True)
class ProtocolParams:
    """The protocol a run executes and the acceptance test it applies.

    Besides block size, test fractions and seed it fixes both tests in
    counts: the threshold win_min, from omega_exp and delta, and the box
    [box_lo, box_hi] over (lose, win, no-test).  The simulator, ``accept``
    and both key-length certificates read it, so a key is certified for
    the test the transcript passed.
    """

    n: int
    gamma_a: float
    gamma_b: float
    omega_exp: float
    delta: float
    box_lo: tuple[int, int, int]
    box_hi: tuple[int, int, int]
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for name in ("gamma_a", "gamma_b"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"test fractions must lie in (0, 1), got {name}={v}")
        if not 0.75 < self.omega_exp <= TSIRELSON_WIN + 1e-15:
            raise ValueError(f"omega_exp={self.omega_exp} outside (3/4, (2+sqrt2)/4]")
        if not self.delta >= 0.0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        if not len(self.box_lo) == len(self.box_hi) == 3 or not all(
            isinstance(lo, int) and isinstance(hi, int) and 0 <= lo <= hi <= self.n
            for lo, hi in zip(self.box_lo, self.box_hi)
        ):
            raise ValueError(f"box needs three integer counts 0 <= lo <= hi <= n, got {self.box_lo}, {self.box_hi}")

    @property
    def win_min(self) -> int:
        """Fewest wins the threshold test accepts: the least k with k / n >= gamma_a gamma_b omega_exp - delta.

        The comparison is the float one, so a count passes exactly when
        its frequency k / n reaches the threshold.
        """
        thr = self.gamma_a * self.gamma_b * self.omega_exp - self.delta
        k = max(math.ceil(thr * self.n), 0)
        # thr * n and k / n both round: step to the boundary of the float comparison
        while k > 0 and (k - 1) / self.n >= thr:
            k -= 1
        while k / self.n < thr:
            k += 1
        return k


def build_acceptance_set(
    n: int, gamma_a: float, gamma_b: float, omega_exp: float, eps_com_at: float
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Count bounds (box_lo, box_hi) with per-symbol binomial tails at level eps_com_at / 6.

    The symbols are (lose, win, no-test), with honest probabilities
    gamma_a gamma_b (1 - omega_exp), gamma_a gamma_b omega_exp and
    1 - gamma_a gamma_b.  The union bound over six tails keeps the honest
    abort probability at or below eps_com_at, which must lie in (0, 1):
    at 1 or more the bound promises nothing, yet the box would keep
    narrowing and certify more key.
    """
    if not 0.0 < eps_com_at < 1.0:
        raise ValueError(f"eps_com_at must lie in (0, 1), got {eps_com_at}")
    gg = gamma_a * gamma_b
    lo, hi = zip(*(binomial_box(n, p, eps_com_at / 6.0) for p in (gg * (1.0 - omega_exp), gg * omega_exp, 1.0 - gg)))
    return lo, hi


# Measurement axes per setting: x-party {Z, X}; y-party {diag+, diag-, Z},
# y = 2 the key basis, bit-flipped to the positive-correlation convention.
_X_AXES = (Z_AXIS, X_AXIS)
_Y_AXES = tuple(axis.bit_flipped() for axis in (diag_axis(+1), diag_axis(-1), Z_AXIS))


class Behavior:
    """Conditional outcome table P(a, b | x, y) for x in {0,1}, y in {0,1,2}."""

    __slots__ = ("table",)

    def __init__(self, table: np.ndarray):
        t = np.asarray(table, dtype=float)
        if t.shape != (2, 3, 2, 2):
            raise ValueError(f"behavior table must have shape (2, 3, 2, 2), got {t.shape}")
        if t.min() < -1e-15:
            raise ValueError("behavior table has negative entries")
        sums = t.sum(axis=(2, 3))
        if np.max(np.abs(sums - 1.0)) > 1e-12:
            raise ValueError("conditional distributions must each sum to 1")
        self.table = np.clip(t, 0.0, 1.0)

    def chsh_win_probability(self) -> float:
        """Winning probability of the game under uniform test settings."""
        win = 0.0
        for x in range(2):
            for y in range(2):
                for a in range(2):
                    for b in range(2):
                        if (a ^ b) == (x & y):
                            win += 0.25 * self.table[x, y, a, b]
        return float(win)

    def chsh_value(self) -> float:
        e = self.table[..., 0, 0] - self.table[..., 0, 1] - self.table[..., 1, 0] + self.table[..., 1, 1]
        return float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])

    def key_qber(self) -> float:
        return float(self.table[0, 2, 0, 1] + self.table[0, 2, 1, 0])


_COLUMN_TOPS = (1, 1, 1, 2, 1, 1, PERP)  # largest value of s, t, x, y, a, b, c


class Transcript:
    """Column-wise storage of n protocol rounds plus the generating params.

    Every column is int8 and holds round data only: s, t, x, a, b in
    {0, 1}, y in {0, 1, 2}, c in {0, 1, PERP}.  Other values raise.
    """

    __slots__ = ("s", "t", "x", "y", "a", "b", "c", "params")

    def __init__(self, params: ProtocolParams, s, t, x, y, a, b, c):
        self.params = params
        arrays = []
        for name, v, top in zip("stxyabc", (s, t, x, y, a, b, c), _COLUMN_TOPS):
            raw = np.asarray(v)
            col = raw.astype(np.int8, copy=False)
            if col.shape != (params.n,):
                raise ValueError("all columns must have length n")
            # the cast must keep every value, and a uint8 view maps negatives above top
            if (col is not raw and not np.array_equal(col, raw)) or (col.size and col.view(np.uint8).max() > top):
                raise ValueError(f"column {name} must hold integers in 0..{top}")
            arrays.append(col)
        self.s, self.t, self.x, self.y, self.a, self.b, self.c = arrays

    def __len__(self) -> int:
        return self.params.n

    def __iter__(self) -> Iterator[tuple[np.ndarray, ...]]:
        """The columns (s, t, x, y, a, b, c) as views of COUNT_ROUNDS rounds at a time, for ``estimate``."""
        cols = (self.s, self.t, self.x, self.y, self.a, self.b, self.c)
        for lo in range(0, self.params.n, COUNT_ROUNDS):
            yield tuple(col[lo : lo + COUNT_ROUNDS] for col in cols)

    def copy(self) -> "Transcript":
        return Transcript(
            self.params,
            self.s.copy(), self.t.copy(), self.x.copy(), self.y.copy(),
            self.a.copy(), self.b.copy(), self.c.copy(),
        )


def behavior_from_state(rho: TwoQubitState, readout_flip: float = 0.0) -> Behavior:
    """Born-rule behavior table of a state under the protocol's measurement axes."""
    table = np.empty((2, 3, 2, 2), dtype=float)
    for x, a_axis in enumerate(_X_AXES):
        for y, b_axis in enumerate(_Y_AXES):
            table[x, y] = outcome_distribution(rho, a_axis, b_axis, readout_flip)
    return Behavior(table)


def _thresholds(c) -> np.ndarray:
    """Integer thresholds: a word w < 2^53 has w * 2^-53 >= c exactly when w >= _thresholds(c).

    c * 2^53 is exact, so its ceiling is the least such w; c >= 1 maps to
    2^53, which no word reaches.
    """
    return np.clip(np.ceil(np.multiply(c, 2.0**53)), 0.0, 2.0**53).astype(np.uint64)


def _generate_columns(rng: CounterRng, thr: np.ndarray, cuts: np.ndarray, start: int, words: np.ndarray, out) -> None:
    """Fill the int8 columns ``out`` (s, t, x, y, a, b, c) with rounds [start, start + len).

    ``words`` is a (5, len) uint64 buffer for the rounds' draws.  ``thr``
    holds the word thresholds of (gamma_a, 1/2, gamma_b, 1/2) for slots 0
    to 3; ``cuts[k, x * 3 + y]`` is the threshold of P(outcome pair index
    <= k | x, y) for k < 3.  Comparisons write bools into the int8 columns
    through a bool view, which holds the same 0/1 bytes.
    """
    s, t, x, y, a, b, c = out
    w = rng.round_words(start, range(5), words)
    np.greater_equal(w[0], thr[0], out=s.view(np.bool_))
    np.greater_equal(w[1], thr[1], out=x.view(np.bool_))
    np.greater_equal(w[2], thr[2], out=t.view(np.bool_))
    np.greater_equal(w[3], thr[3], out=y.view(np.bool_))
    x &= s ^ 1  # key rounds use x = 0
    y &= t ^ 1
    y |= t << 1  # key rounds use y = 2

    # outcome pair index in the fixed order (0,0), (0,1), (1,0), (1,1)
    cell = (x * 3 + y).astype(np.intp)
    idx = np.greater_equal(w[4], cuts[0].take(cell)).view(np.int8)
    idx += np.greater_equal(w[4], cuts[1].take(cell)).view(np.int8)
    idx += np.greater_equal(w[4], cuts[2].take(cell)).view(np.int8)
    np.right_shift(idx, 1, out=a)
    np.bitwise_and(idx, 1, out=b)

    # c: the payoff on test rounds (s = t = 0), PERP elsewhere
    np.equal(a ^ b, x & y, out=c.view(np.bool_))
    not_test = s | t
    c &= not_test ^ 1
    c |= not_test * PERP


def simulate_rounds(behavior: Behavior, params: ProtocolParams) -> Iterator[np.ndarray]:
    """n i.i.d. rounds from the behavior, reproducible from params.seed, CHUNK_ROUNDS at a time.

    Yields each chunk as a (7, rounds) int8 view whose rows are the
    columns (s, t, x, y, a, b, c).  Every chunk is one block of five words
    per round (slots: s, x, t, y, outcome pair), and chunks and words
    share one reused buffer each, so a chunk is overwritten by the next:
    consume or copy it before stepping on.
    """
    rng = CounterRng(params.seed)
    thr = _thresholds([params.gamma_a, 0.5, params.gamma_b, 0.5])
    cuts = _thresholds(np.cumsum(behavior.table.reshape(6, 4), axis=1)[:, :3].T)
    size = min(CHUNK_ROUNDS, params.n)
    cols = np.empty((7, size), dtype=np.int8)
    words = np.empty((5, size), dtype=np.uint64)
    for start in range(0, params.n, CHUNK_ROUNDS):
        m = min(CHUNK_ROUNDS, params.n - start)
        _generate_columns(rng, thr, cuts, start, words[:, :m], cols[:, :m])
        yield cols[:, :m]


def generate_transcript(behavior: Behavior, params: ProtocolParams) -> Transcript:
    """The rounds of ``simulate_rounds`` stored as a Transcript's n-long columns."""
    cols = np.empty((7, params.n), dtype=np.int8)
    start = 0
    for chunk in simulate_rounds(behavior, params):
        cols[:, start : start + chunk.shape[1]] = chunk
        start += chunk.shape[1]
    return Transcript(params, *cols)


def sift(tr: Transcript) -> Transcript:
    """Zero outcomes on the two deterministically useless round classes."""
    out = tr.copy()
    dead = ((tr.s == 1) & (tr.t == 0)) | ((tr.s == 0) & (tr.t == 1) & (tr.x == 1) & (tr.y == 2))
    out.a[dead] = 0
    out.b[dead] = 0
    return out


def test_statistic(tr: Transcript) -> float:
    """Sum of test-round payoffs divided by the total round count n."""
    return float(np.count_nonzero(tr.c == 1)) / tr.params.n


def accept(counts: tuple[int, int, int], params: ProtocolParams) -> tuple[bool, bool]:
    """The acceptance test on a run's (lose, win, no-test) counts: (threshold test, box test).

    The threshold test aborts only below params.win_min wins; the box
    test aborts when any count leaves [params.box_lo, params.box_hi].
    """
    in_box = all(lo <= k <= hi for lo, k, hi in zip(params.box_lo, counts, params.box_hi))
    return counts[1] >= params.win_min, in_box


@dataclass(frozen=True)
class EstimateResult:
    s_hat: float
    s_err: float
    q_hat: float
    q_err: float
    counts: tuple[int, int, int]  # rounds with c = 0, c = 1, c = PERP
    flagged: bool


def _count_tensor(blocks: Iterable[Sequence[np.ndarray]]) -> np.ndarray:
    """Round counts over the 96 cells (s, t, x, y, a, b), shape (2, 2, 2, 3, 2, 2).

    Summed over the blocks of columns (s, t, x, y, a, b, c), so the int8
    cell index and the intp copy ``bincount`` makes of it stay one block
    long.
    """
    counts = np.zeros(96, dtype=np.intp)
    for s, t, x, y, a, b, _ in blocks:
        counts += np.bincount(s * 48 + t * 24 + x * 12 + y * 4 + a * 2 + b, minlength=96)
    return counts.reshape(2, 2, 2, 3, 2, 2)


def estimate(rounds: Iterable[Sequence[np.ndarray]]) -> EstimateResult:
    """Point estimates of the CHSH value and key-basis error rate.

    ``rounds`` is a Transcript or any iterable of column blocks, such as
    ``simulate_rounds``; n is the number of rounds it holds.  The CHSH
    value comes from the four test-setting correlators, the error rate
    from all (x, y) = (0, 2) rounds; both carry Poissonian standard
    errors.  Estimates with an empty cell are flagged.  Every figure is
    read from the count tensor, so the c column enters only through the
    transcript invariant: c is the payoff on test rounds and PERP on all
    others.
    """
    cells = _count_tensor(rounds)
    test = cells[0, 0, :, :2]  # (x, y, a, b) on rounds with s = t = 0
    flagged = False
    wins = 0
    e = np.zeros((2, 2))
    var = np.zeros((2, 2))
    for x in range(2):
        for y in range(2):
            n_xy = int(test[x, y].sum())
            agree = int(test[x, y, 0, 0] + test[x, y, 1, 1])
            wins += n_xy - agree if x & y else agree
            if n_xy == 0:
                flagged = True
                continue
            e[x, y] = 2.0 * agree / n_xy - 1.0
            var[x, y] = max(1.0 - e[x, y] ** 2, 1.0 / n_xy) / n_xy
    s_hat = e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]
    s_err = float(np.sqrt(var.sum()))

    key = cells[:, :, 0, 2].sum(axis=(0, 1))  # (a, b) on rounds with (x, y) = (0, 2)
    n_key = int(key.sum())
    if n_key == 0:
        flagged = True
        q_hat, q_err = math.nan, math.nan
    else:
        q_hat = float(key[0, 1] + key[1, 0]) / n_key
        q_err = math.sqrt(max(q_hat * (1.0 - q_hat), 1.0 / n_key) / n_key)

    n_test = int(test.sum())
    counts = (n_test - wins, wins, int(cells.sum()) - n_test)
    return EstimateResult(float(s_hat), s_err, q_hat, q_err, counts, flagged)

