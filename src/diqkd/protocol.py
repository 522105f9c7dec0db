"""Monte-Carlo protocol transcripts: round generation, sifting, estimation.

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
no further zeroing happens here.

Generation is vectorized over a counter-based generator, so disjoint
round ranges produced in parallel are bit-identical to a sequential run.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mathcore import TSIRELSON_WIN
from .quantum import BlochVector, TwoQubitState, X_AXIS, Z_AXIS, diag_axis, outcome_distribution
from .rng import CounterRng

__all__ = [
    "PERP",
    "TSIRELSON_WIN",
    "ProtocolParams",
    "SettingsMap",
    "paper_settings",
    "Behavior",
    "RoundRecord",
    "Transcript",
    "payoff",
    "behavior_from_state",
    "generate_transcript",
    "sift",
    "test_statistic",
    "accept",
    "EstimateResult",
    "estimate",
    "write_transcript",
    "read_transcript",
]

PERP = 2  # placeholder value of the test outcome c on non-test rounds


@dataclass(frozen=True)
class ProtocolParams:
    """The protocol a run executes: block size, test fractions, threshold, seed.

    The simulator, the acceptance test and both key-length certificates
    read it, so a key is certified for the test the transcript passed.
    """

    n: int
    gamma_a: float
    gamma_b: float
    omega_exp: float
    delta: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for name in ("gamma_a", "gamma_b"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name}={v} outside (0, 1)")
        if not 0.75 < self.omega_exp <= TSIRELSON_WIN + 1e-15:
            raise ValueError(f"omega_exp={self.omega_exp} outside (3/4, (2+sqrt2)/4]")
        if self.delta < 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")


@dataclass(frozen=True)
class SettingsMap:
    """Bloch axes per setting; flip_b bit-flips the three-setting party."""

    a_axes: tuple[BlochVector, BlochVector]
    b_axes: tuple[BlochVector, BlochVector, BlochVector]
    flip_b: bool = True


def paper_settings() -> SettingsMap:
    """Default axes: x-party {Z, X}; y-party {diag+, diag-, Z} with y=2 the key basis."""
    return SettingsMap(
        a_axes=(Z_AXIS, X_AXIS),
        b_axes=(diag_axis(+1), diag_axis(-1), Z_AXIS),
        flip_b=True,
    )


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

    def no_signaling_residual(self) -> float:
        """Largest marginal inconsistency across the other party's settings."""
        pa = self.table.sum(axis=3)  # P(a | x, y)
        pb = self.table.sum(axis=2)  # P(b | x, y)
        res = 0.0
        for x in range(2):
            spread = pa[x].max(axis=0) - pa[x].min(axis=0)
            res = max(res, float(spread.max()))
        for y in range(3):
            spread = pb[:, y].max(axis=0) - pb[:, y].min(axis=0)
            res = max(res, float(spread.max()))
        return res

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


@dataclass(frozen=True)
class RoundRecord:
    s: int
    t: int
    x: int
    y: int
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.s == 1 and self.x != 0:
            raise ValueError("key-flagged rounds must use x = 0")
        if self.t == 1 and self.y != 2:
            raise ValueError("key-flagged rounds must use y = 2")
        is_test = self.s == 0 and self.t == 0
        if is_test != (self.c != PERP):
            raise ValueError("c must be PERP exactly on non-test rounds")
        if is_test and self.c != payoff(self.a, self.b, self.x, self.y):
            raise ValueError("test-round c must equal the game payoff")


class Transcript:
    """Column-wise storage of n protocol rounds plus the generating params."""

    __slots__ = ("s", "t", "x", "y", "a", "b", "c", "params")

    def __init__(self, params: ProtocolParams, s, t, x, y, a, b, c):
        self.params = params
        arrays = [np.asarray(v, dtype=np.int8) for v in (s, t, x, y, a, b, c)]
        if any(v.shape != (params.n,) for v in arrays):
            raise ValueError("all columns must have length n")
        self.s, self.t, self.x, self.y, self.a, self.b, self.c = arrays

    def __len__(self) -> int:
        return self.params.n

    def __getitem__(self, i: int) -> RoundRecord:
        return RoundRecord(
            int(self.s[i]), int(self.t[i]), int(self.x[i]), int(self.y[i]),
            int(self.a[i]), int(self.b[i]), int(self.c[i]),
        )

    def copy(self) -> "Transcript":
        return Transcript(
            self.params,
            self.s.copy(), self.t.copy(), self.x.copy(), self.y.copy(),
            self.a.copy(), self.b.copy(), self.c.copy(),
        )


def payoff(a: int, b: int, x: int, y: int) -> int:
    """Game payoff: 1 when a XOR b equals x AND y.  Defined on test settings only."""
    if x not in (0, 1) or y not in (0, 1):
        raise ValueError(f"payoff is defined for x, y in {{0, 1}}, got x={x}, y={y}")
    return 1 if (a ^ b) == (x & y) else 0


def behavior_from_state(
    rho: TwoQubitState,
    settings: Optional[SettingsMap] = None,
    readout_flip: float = 0.0,
) -> Behavior:
    """Born-rule behavior table for a state and a settings map."""
    if settings is None:
        settings = paper_settings()
    table = np.empty((2, 3, 2, 2), dtype=float)
    for x, a_axis in enumerate(settings.a_axes):
        for y, b_axis in enumerate(settings.b_axes):
            axis_b = b_axis.bit_flipped() if settings.flip_b else b_axis
            table[x, y] = outcome_distribution(rho, a_axis, axis_b, readout_flip)
    return Behavior(table)


def _generate_columns(behavior: Behavior, params: ProtocolParams, start: int, stop: int):
    rng = CounterRng(params.seed)
    n = stop - start
    u_s = rng.round_uniforms(start, n, 0)
    u_x = rng.round_uniforms(start, n, 1)
    u_t = rng.round_uniforms(start, n, 2)
    u_y = rng.round_uniforms(start, n, 3)
    u_o = rng.round_uniforms(start, n, 4)

    s = (u_s >= params.gamma_a).astype(np.int8)
    t = (u_t >= params.gamma_b).astype(np.int8)
    x = np.where(s == 0, (u_x >= 0.5).astype(np.int8), np.int8(0))
    y = np.where(t == 0, (u_y >= 0.5).astype(np.int8), np.int8(2))

    # outcome pair index in the fixed order (0,0), (0,1), (1,0), (1,1)
    flat = behavior.table.reshape(6, 4)
    cum = np.cumsum(flat, axis=1)
    cum[:, -1] = 1.0
    cell = (x.astype(np.intp) * 3 + y.astype(np.intp))
    idx = (u_o[:, None] >= cum[cell, :3]).sum(axis=1)
    a = (idx >> 1).astype(np.int8)
    b = (idx & 1).astype(np.int8)

    test = (s == 0) & (t == 0)
    win = ((a ^ b) == (x & y)).astype(np.int8)
    c = np.where(test, win, np.int8(PERP))
    return s, t, x, y, a, b, c


def generate_transcript(
    behavior: Behavior,
    params: ProtocolParams,
    chunks: int = 1,
) -> Transcript:
    """n i.i.d. rounds from the behavior, reproducible from params.seed.

    ``chunks > 1`` generates disjoint round ranges separately (as a
    parallel driver would) and stitches them; the counter-based generator
    makes the result bit-identical to the single-pass output.
    """
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    bounds = np.linspace(0, params.n, chunks + 1).astype(int)
    parts = [_generate_columns(behavior, params, int(lo), int(hi)) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    cols = [np.concatenate([p[i] for p in parts]) for i in range(7)]
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


def accept(beta: float, params: ProtocolParams) -> bool:
    """Acceptance test: abort only strictly below the expected-payoff threshold."""
    return beta >= params.gamma_a * params.gamma_b * params.omega_exp - params.delta


@dataclass(frozen=True)
class EstimateResult:
    s_hat: float
    s_err: float
    q_hat: float
    q_err: float
    counts: tuple[int, int, int]  # rounds with c = 0, c = 1, c = PERP
    flagged: bool


def estimate(tr: Transcript) -> EstimateResult:
    """Point estimates of the CHSH value and key-basis error rate.

    The CHSH value comes from the four test-setting correlators, the
    error rate from all (x, y) = (0, 2) rounds; both carry Poissonian
    standard errors.  Estimates with an empty cell are flagged.
    """
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
    return EstimateResult(float(s_hat), s_err, q_hat, q_err, counts, flagged)


def write_transcript(tr: Transcript, fp: io.TextIOBase) -> None:
    """One record per line, s t x y a b c; header echoes the parameters."""
    p = tr.params
    fp.write("# transcript v1\n")
    fp.write(
        f"# n = {p.n}\n# gamma_a = {p.gamma_a!r}\n# gamma_b = {p.gamma_b!r}\n"
        f"# omega_exp = {p.omega_exp!r}\n# delta = {p.delta!r}\n# seed = {p.seed}\n"
    )
    cols = np.stack([tr.s, tr.t, tr.x, tr.y, tr.a, tr.b, tr.c], axis=1)
    for row in cols:
        fp.write(" ".join(map(str, row)) + "\n")


def read_transcript(fp: io.TextIOBase) -> Transcript:
    header: dict[str, str] = {}
    rows = []
    for line in fp:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, v = body.split("=", 1)
                header[k.strip()] = v.strip()
            continue
        rows.append([int(tok) for tok in line.split()])
    params = ProtocolParams(
        n=int(header["n"]),
        gamma_a=float(header["gamma_a"]),
        gamma_b=float(header["gamma_b"]),
        omega_exp=float(header["omega_exp"]),
        delta=float(header["delta"]),
        seed=int(header["seed"]),
    )
    data = np.array(rows, dtype=np.int8)
    if data.shape != (params.n, 7):
        raise ValueError(f"expected {params.n} rows of 7 fields, got shape {data.shape}")
    return Transcript(params, *(data[:, i] for i in range(7)))
