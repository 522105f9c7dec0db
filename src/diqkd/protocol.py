"""The acceptance test and the Monte-Carlo protocol: rounds drawn straight to cell counts, and their estimates.

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

A run is its counts over the 96 cells (s, t, x, y, a, b), of index
v = 48 s + 24 t + 12 x + 4 y + 2 a + b: ``simulate_rounds`` yields one
count tensor per chunk, ``estimate`` sums count tensors, and ``accept``
reads three counts of the sum.  No command reads a per-round value.

Generation is vectorized over a counter-based generator, so disjoint
round ranges produced in parallel are bit-identical to a sequential run.
Each chunk of CHUNK_ROUNDS rounds draws five raw 64-bit words z per round
(slots S, X, T, Y, outcome) into one reused buffer and reduces them to v,
with no per-round column, so memory is one chunk whatever n is.  As
u = (z >> 11) 2^-53, u >= c exactly when z >= ceil(c 2^53) << 11: no word
becomes a float.  The key-round rules x = X (1 - S), y = Y (1 - T) + 2 T
make the setting part 48 S + 32 T + 12 [X > S] + 4 [Y > T].  With the
outcome word w = z >> 11 and cuts c_k = ceil(P(pair index <= k | x, y) 2^53),
the pair is a = [w >= c_1], b = [w >= c_{2a}].

``generate_transcript`` decodes the same v into n-long int8 columns
(s, t, x, y, a, b, c).  ``sift`` zeroes the outcomes of the two round
classes useless for both key and test, (s, t) = (1, 0) and
(s, t, x, y) = (0, 1, 1, 2); key-round outcomes of the three-setting
party are never published, and reconciliation replaces them downstream.
``test_statistic`` reads c.  No command calls the three: neither sifted
class is a test round or a key round ((x, y) = (0, 2)), so no estimate
or acceptance test reads the outcomes sifting zeroes, and the dilution
it models is already in the analytic rates.
"""

from __future__ import annotations

import collections
import functools
import math
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .mathcore import TSIRELSON_WIN, _last_true, binomial_box
from .quantum import TwoQubitState, X_AXIS, Z_AXIS, _born, _joint_projectors, diag_axis
from .rng import CounterRng

__all__ = [
    "PERP",
    "ProtocolParams",
    "build_acceptance_set",
    "Behavior",
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
CHUNK_ROUNDS = 1 << 13  # rounds per pass (and per count tensor); their temporaries stay in cache


class _ProtocolFields(NamedTuple):
    n: int
    gamma_a: float
    gamma_b: float
    omega_exp: float
    delta: float
    box_lo: tuple[int, int, int]
    box_hi: tuple[int, int, int]
    seed: int = 0


class ProtocolParams(_ProtocolFields):
    """The protocol a run executes and the acceptance test it applies.

    Besides block size, test fractions and seed it fixes both tests in
    counts: the threshold win_min, from omega_exp and delta, and the box
    [box_lo, box_hi] over (lose, win, no-test).  The simulator, ``accept``
    and both key-length certificates read it, so a key is certified for
    the test the transcript passed.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ProtocolParams":
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    @property
    def win_min(self) -> int:
        """Fewest wins the threshold test accepts: the least k with k / n >= gamma_a gamma_b omega_exp - delta.

        The comparison is the float one, so a count passes exactly when
        its frequency k / n reaches the threshold; thr * n is only the
        search's first guess.
        """
        n, thr = self.n, self.gamma_a * self.gamma_b * self.omega_exp - self.delta
        return _last_true(lambda j: j / n < thr, thr * n, -1, n - 1) + 1


def build_acceptance_set(n, gamma_a: float, gamma_b: float, omega_exp: float, eps_com_at: float):
    """Count bounds (box_lo, box_hi) with per-symbol binomial tails at level eps_com_at / 6.

    The symbols are (lose, win, no-test), with honest probabilities
    gamma_a gamma_b (1 - omega_exp), gamma_a gamma_b omega_exp and
    1 - gamma_a gamma_b.  The union bound over six tails keeps the honest
    abort probability at or below eps_com_at, which must lie in (0, 1):
    at 1 or more the bound promises nothing, yet the box would keep
    narrowing and certify more key.

    n is one block size or a sequence of them: one gives its (box_lo,
    box_hi), a sequence the list of their boxes, so a sweep sizes all its
    boxes in one call.
    """
    if not 0.0 < eps_com_at < 1.0:
        raise ValueError(f"eps_com_at must lie in (0, 1), got {eps_com_at}")
    gg = gamma_a * gamma_b
    probs = (gg * (1.0 - omega_exp), gg * omega_exp, 1.0 - gg)
    boxes = [tuple(zip(*(binomial_box(size, p, eps_com_at / 6.0) for p in probs))) for size in np.atleast_1d(n).tolist()]
    return boxes if np.ndim(n) else boxes[0]


# Measurement axes per setting: x-party {Z, X}; y-party {diag+, diag-, Z},
# y = 2 the key basis, bit-flipped to the positive-correlation convention.
_X_AXES = (Z_AXIS, X_AXIS)
_Y_AXES = tuple(axis.bit_flipped() for axis in (diag_axis(+1), diag_axis(-1), Z_AXIS))


@functools.cache
def _setting_projectors() -> np.ndarray:
    """The 24 joint projectors of the six setting pairs, shape (2, 3, 2, 2, 4, 4): built at first use, once per process."""
    projectors = _joint_projectors(_X_AXES, _Y_AXES)
    projectors.flags.writeable = False
    return projectors


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
        cells = np.ndindex(2, 2, 2, 2)
        return float(sum(0.25 * self.table[x, y, a, b] for x, y, a, b in cells if (a ^ b) == (x & y)))

    def chsh_value(self) -> float:
        # in Python floats, in numpy's operation order: on 16 numbers, numpy's per-call cost would be most of the work
        e = [[((p[0][0] - p[0][1]) - p[1][0]) + p[1][1] for p in row] for row in self.table[:, :2].tolist()]
        return ((e[0][0] + e[0][1]) + e[1][0]) - e[1][1]

    def key_qber(self) -> float:
        (_, q01), (q10, _) = self.table[0, 2].tolist()
        return q01 + q10


# (s, t, x, y, a, b) of each cell index v, and the columns generate_transcript decodes it to
_CELL = np.unravel_index(np.arange(96), (2, 2, 2, 3, 2, 2))
_CELL_COLUMNS = np.array(
    [*_CELL, np.where(_CELL[0] | _CELL[1], PERP, (_CELL[4] ^ _CELL[5]) == (_CELL[2] & _CELL[3]))], dtype=np.int8
)
_SETTING_WEIGHTS = np.array([[48], [12], [32], [4]], dtype=np.uint8)  # of S, [X > S], T, [Y > T]
_Columns = collections.namedtuple("_Columns", "s t x y a b c")


def behavior_from_state(rho: TwoQubitState, readout_flip: float = 0.0) -> Behavior:
    """Born-rule behavior table of a state under the protocol's measurement axes, in one batched trace."""
    return Behavior(_born(rho, _setting_projectors(), readout_flip))


def _thresholds(c) -> np.ndarray:
    """Integer thresholds: a word w < 2^53 has w * 2^-53 >= c exactly when w >= _thresholds(c).

    c * 2^53 is exact, so its ceiling is the least such w; c >= 1 maps to
    2^53, which no word reaches.
    """
    return np.clip(np.ceil(np.multiply(c, 2.0**53)), 0.0, 2.0**53).astype(np.uint64)


def _setting_index(flags: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The setting part 48 s + 24 t + 12 x + 4 y of each round's cell index, into the uint8 array ``out``.

    Overwrites ``flags``, the (4, rounds) bools (S, X, T, Y).
    """
    np.greater(flags[1], flags[0], out=flags[1])
    np.greater(flags[3], flags[2], out=flags[3])
    weighted = flags.view(np.uint8)
    weighted *= _SETTING_WEIGHTS
    return weighted.sum(axis=0, dtype=np.uint8, out=out)


def _cell_indices(behavior: Behavior, params: ProtocolParams) -> Iterator[np.ndarray]:
    """Each round's cell index v, as one reused uint8 array per chunk of CHUNK_ROUNDS rounds.

    Consume a chunk before stepping on.  Row 0 of the (2, 96) cut table
    holds c_1 of each setting at its setting part, row 1 c_{2a} at the
    setting part plus 2a.
    """
    rng = CounterRng(params.seed)
    flag_thr = (_thresholds([params.gamma_a, 0.5, params.gamma_b, 0.5]) << np.uint64(11))[:, None]
    cum = _thresholds(np.cumsum(behavior.table.reshape(6, 4), axis=1))  # [x * 3 + y, k]: the cut c_k
    cuts = cum[_CELL[2] * 3 + _CELL[3], np.stack([np.ones(96, dtype=np.intp), 2 * _CELL[4]])]
    size = min(CHUNK_ROUNDS, params.n)
    words = np.empty((5, size), dtype=np.uint64)
    flags = np.empty((4, size), dtype=np.bool_)
    cells = np.empty(size, dtype=np.uint8)
    for start in range(0, params.n, CHUNK_ROUNDS):
        m = min(CHUNK_ROUNDS, params.n - start)
        z = rng.round_words(start, range(5), words[:, :m])
        f = np.greater_equal(z[:4], flag_thr, out=flags[:, :m])
        v = _setting_index(f, cells[:m])
        w = np.right_shift(z[4], np.uint64(11), out=z[4])
        a = np.greater_equal(w, cuts[0].take(v), out=f[0])
        v += a
        v += a
        v += np.greater_equal(w, cuts[1].take(v), out=f[1])
        yield v


def simulate_rounds(behavior: Behavior, params: ProtocolParams) -> Iterator[np.ndarray]:
    """n i.i.d. rounds from the behavior, reproducible from params.seed, as the 96-cell count tensor of each chunk.

    Nothing is drawn until the stream is consumed, by ``estimate``.
    """
    return (np.bincount(v, minlength=96) for v in _cell_indices(behavior, params))


def generate_transcript(behavior: Behavior, params: ProtocolParams) -> _Columns:
    """The rounds of ``simulate_rounds`` as n-long int8 columns (s, t, x, y, a, b, c), decoded from their cell indices."""
    cols = np.empty((7, params.n), dtype=np.int8)
    start = 0
    for v in _cell_indices(behavior, params):
        cols[:, start : start + v.size] = _CELL_COLUMNS[:, v]
        start += v.size
    return _Columns(*cols)


def sift(columns: _Columns) -> _Columns:
    """Zero outcomes on the two deterministically useless round classes: new a and b, the other columns shared."""
    s, t, x, y, a, b, c = columns
    dead = ((s == 1) & (t == 0)) | ((s == 0) & (t == 1) & (x == 1) & (y == 2))
    return _Columns(s, t, x, y, np.where(dead, 0, a), np.where(dead, 0, b), c)


def test_statistic(columns: _Columns) -> float:
    """Sum of test-round payoffs divided by the round count."""
    return float(np.count_nonzero(columns.c == 1)) / len(columns.c)


def accept(counts: tuple[int, int, int], params: ProtocolParams) -> tuple[bool, bool]:
    """The acceptance test on a run's (lose, win, no-test) counts: (threshold test, box test).

    The threshold test aborts only below params.win_min wins; the box
    test aborts when any count leaves [params.box_lo, params.box_hi].
    """
    in_box = all(lo <= k <= hi for lo, k, hi in zip(params.box_lo, counts, params.box_hi))
    return counts[1] >= params.win_min, in_box


class EstimateResult(NamedTuple):
    s_hat: float
    s_err: float
    q_hat: float
    q_err: float
    counts: tuple[int, int, int]  # rounds with c = 0, c = 1, c = PERP
    flagged: bool


def _count_tensor(blocks: Iterable[np.ndarray]) -> np.ndarray:
    """Round counts over the 96 cells (s, t, x, y, a, b), shape (2, 2, 2, 3, 2, 2), summed over count tensors."""
    return sum(blocks, np.zeros(96, dtype=np.intp)).reshape(2, 2, 2, 3, 2, 2)


def estimate(rounds: Iterable[np.ndarray]) -> EstimateResult:
    """Point estimates of the CHSH value and key-basis error rate.

    ``rounds`` is an iterable of 96-cell count tensors, such as
    ``simulate_rounds``; n is the number of rounds they count.  The CHSH
    value comes from the four test-setting correlators, the error rate
    from all (x, y) = (0, 2) rounds; both carry Poissonian standard
    errors.  Estimates with an empty cell are flagged.  The (lose, win,
    no-test) counts are the cells' too: a test round (s = t = 0) is won
    when a ^ b = x y.
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

