"""Finite-size key length from Renyi-order entropy accumulation.

The acceptance test is the run's box of count bounds over the test
symbols {0, 1, perp} (ProtocolParams.box_lo and box_hi), read here as
frequency bounds L/n and H/n.  Security rests on a single-round bound:
for any attack producing CHSH score S, the order-alpha conditional
entropy of the key bit satisfies

    2^((1-a) H_a) = 2^(1-a) [ ((1-r)/2)^(1/a) + ((1+r)/2)^(1/a) ]^a,
    r = sqrt(S^2/4 - 1),

which the sifting step dilutes by known weights (Arqand, Hahn & Tan,
arXiv:2405.05912).  The certified per-round quantity h_alpha is a
two-level minimization: an adversarial score on an outer grid (entropy
clamped to zero below the classical bound, where only the divergence
term protects), and an inner convex minimization over the box.  The
inner problem is solved in closed form: its KKT point is a clipped
proportional scaling of the model distribution, and the scale is read
off the piecewise-linear box mass between its breakpoints, with no
iteration.  Every Renyi order of a search is evaluated in the same
array calls: the score grid in chunks of orders, then one lockstep
golden-section refinement for all of them.  h_alpha checks its inputs
and computes the terms fixed for the search (box, grid, and per set of
orders 1/a, 2^(1-a), 1-a, a-1) once; the solver takes all rows' three
outcomes as one (3, rows) array, every entry positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .eat import LEAK_EV_BITS
from .mathcore import TSIRELSON_CHSH, TSIRELSON_WIN, golden_min
from .protocol import ProtocolParams

__all__ = [
    "RenyiConfig",
    "renyi_entropy_factor",
    "renyi_key_entropy",
    "sift_weights",
    "sifted_entropy_bound",
    "h_alpha",
    "RenyiResult",
    "key_length_renyi",
]

_SIGMA_GRID = 192  # outer score grid cells on [1/2, (2+sqrt2)/4]
_ALPHA_GRID = 64  # log-spaced Renyi orders of the coarse order search
_ORDER_CHUNK = 8  # Renyi orders per array call of the score grid: 8 x 192 rows keep peak memory flat


@dataclass(frozen=True)
class RenyiConfig:
    """Renyi order (None = optimize) and secrecy level."""

    alpha: Optional[float] = None
    eps_sec: float = 1e-5

    def __post_init__(self) -> None:
        if self.alpha is not None and not 1.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha={self.alpha} outside (1, 2]")
        if not 0.0 < self.eps_sec < 1.0:
            raise ValueError(f"eps_sec={self.eps_sec} outside (0, 1)")


def _float_if_scalar(x):
    """A 0-d result as a float; arrays pass through."""
    return float(x) if np.ndim(x) == 0 else x


def _halves(s):
    """(1 - r)/2 and (1 + r)/2 at CHSH scores s, with r = sqrt(S^2/4 - 1) clamped to [0, 1]."""
    r = np.sqrt(np.minimum(np.maximum(s * s / 4.0 - 1.0, 0.0), 1.0))
    return (1.0 - r) / 2.0, (1.0 + r) / 2.0


def _factor(halves, a, inv_a, two_1ma):
    """2^{(1-a) H} above the classical bound, from _halves and the order terms a, 1/a and 2^(1-a)."""
    return two_1ma * (halves[0] ** inv_a + halves[1] ** inv_a) ** a


def _sifted(w_key, w_rest, factor, one_ma):
    """Kept-round entropy from the key factor, the sift weights and 1 - a."""
    return np.log2(w_key * factor + w_rest) / one_ma


def renyi_entropy_factor(s_sigma: float | np.ndarray, alpha: float | np.ndarray) -> float | np.ndarray:
    """2^{(1-alpha) H} for the strongest attack at CHSH score s_sigma.

    Scores at or below the classical bound certify nothing: the factor
    clamps to 1 (zero entropy).  Scores above 2 sqrt 2 are unphysical.
    Broadcasts over arrays of scores and orders; scalars give a float.
    """
    s, a = np.broadcast_arrays(np.asarray(s_sigma, dtype=float), np.asarray(alpha, dtype=float))
    if np.any(s > TSIRELSON_CHSH + 1e-12):
        raise ValueError(f"CHSH score {s.max()} exceeds 2 sqrt 2")
    if np.any(a <= 1.0):
        raise ValueError(f"Renyi order must exceed 1, got {a.min()}")
    return _float_if_scalar(np.where(s > 2.0, _factor(_halves(s), a, 1.0 / a, 2.0 ** (1.0 - a)), 1.0))


def renyi_key_entropy(s_sigma: float, alpha: float) -> float:
    """Certified key-bit entropy in bits: log2(factor) / (1 - alpha)."""
    return math.log2(renyi_entropy_factor(s_sigma, alpha)) / (1.0 - alpha)


def sift_weights(gamma_a: float, gamma_b: float) -> tuple[float, float]:
    """(key weight, rest weight) of the entropy dilution; they sum to 1.  Needs 0 < gamma < 1."""
    if not (0.0 < gamma_a < 1.0 and 0.0 < gamma_b < 1.0):
        raise ValueError(f"test fractions must lie in (0, 1), got {gamma_a} and {gamma_b}")
    gg = gamma_a * gamma_b
    w_key = (1.0 - gamma_b - 0.5 * gamma_a * (1.0 - gamma_b)) / (1.0 - gg)
    w_rest = ((1.0 - gamma_a) * gamma_b + 0.5 * gamma_a * (1.0 - gamma_b)) / (1.0 - gg)
    return w_key, w_rest


def sifted_entropy_bound(
    alpha: float | np.ndarray, gamma_a: float, gamma_b: float, s_sigma: float | np.ndarray
) -> float | np.ndarray:
    """Entropy of the kept rounds after averaging key and sifted contributions.

    Broadcasts over arrays of orders and scores like renyi_entropy_factor.
    """
    w_key, w_rest = sift_weights(gamma_a, gamma_b)
    factor = renyi_entropy_factor(s_sigma, alpha)
    return _float_if_scalar(_sifted(w_key, w_rest, factor, 1.0 - np.asarray(alpha, dtype=float)))


def _inner_min_vec(p: np.ndarray, lo: np.ndarray, hi: np.ndarray, kappa, am1) -> np.ndarray:
    """Exact inner minimum of D(q||p)/(alpha-1) + q_perp kappa over the box.

    p holds one model distribution per column, shape (3, rows), and must
    be positive everywhere; lo and hi are the box bounds as (3, 1)
    columns, whose ceilings the caller has checked can carry the mass;
    kappa and am1 = alpha - 1 give one value per row, or broadcast.  The
    KKT solution is q_c(t) = clip(t p_c w_c, lo_c, hi_c), with w_c = 1
    except w_perp = 2^{-(alpha-1) kappa}, at the scale t where the mass
    sum_c q_c(t) is 1.  The mass is nondecreasing and piecewise linear
    in t with breakpoints lo_c/(p_c w_c) and hi_c/(p_c w_c): the segment
    that brackets 1 runs from the largest breakpoint whose mass falls
    short of 1 to the smallest whose mass reaches it, and t is
    interpolated linearly in it, exact up to rounding.  If the floors
    alone carry the mass, q is the floor.  Sums over the outcomes run
    left to right, (q_0 + q_1) + q_perp.
    """
    if not p.min() > 0.0:
        raise ValueError("model distributions must be positive in every outcome")
    pw = p.copy()
    pw[2] *= 2.0 ** (-am1 * kappa)

    def mass(t: np.ndarray) -> np.ndarray:
        """Box mass at scales t of shape (j, rows)."""
        q = pw[:, None, :] * t
        np.maximum(q, lo[:, :, None], out=q)
        np.minimum(q, hi[:, :, None], out=q)
        m = q[0] + q[1]
        m += q[2]
        return m

    breaks = np.concatenate([lo / pw, hi / pw])
    m = mass(breaks)
    # the mass to reach is 1, or the full mass if the ceilings fall short by rounding
    reach = m >= np.minimum(m.max(axis=0), 1.0)
    t01 = np.array([np.where(reach, -np.inf, breaks).max(axis=0), np.where(reach, breaks, np.inf).min(axis=0)])
    (t0, t1), (m0, m1) = t01, mass(t01)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(t0 > -np.inf, t0 + (1.0 - m0) * (t1 - t0) / (m1 - m0), t1)
    q = np.minimum(np.maximum(pw * t, lo), hi)
    q /= (q[0] + q[1]) + q[2]  # rounding of the interpolated mass
    div = q * np.log2(np.maximum(q, 1e-300) / p)
    return ((div[0] + div[1]) + div[2]) / am1 + q[2] * kappa


def h_alpha(
    config: RenyiConfig,
    params: ProtocolParams,
    alphas: Optional[np.ndarray] = None,
) -> float | np.ndarray:
    """Certified per-round entropy: worst case over scores and box frequencies.

    The test fractions and the box come from params; a frequency q_c
    ranges over [box_lo_c / n, box_hi_c / n], and a box whose ceilings
    sum to fewer than n counts is infeasible.  The outer score search runs on [1/2, (2+sqrt2)/4] (entropy clamped to
    zero at and below the classical point, where an attack only pays the
    divergence cost), localized on a grid of _SIGMA_GRID cells and
    polished by golden-section refinement around the best cell.

    With alphas unset the order is config.alpha and the result a float.
    An array of alphas is evaluated at once and gives an array, each
    entry equal to that order's own value: the grid is scored
    _ORDER_CHUNK orders per array call, and the refinements of all
    orders run in lockstep.
    """
    single = alphas is None
    if single:
        if config.alpha is None:
            raise ValueError("h_alpha needs a fixed Renyi order in config.alpha")
        alphas = np.array([config.alpha])
    if not np.all(alphas > 1.0):
        raise ValueError(f"Renyi order must exceed 1, got {np.min(alphas)}")
    w_key, w_rest = sift_weights(params.gamma_a, params.gamma_b)
    gg = params.gamma_a * params.gamma_b
    if sum(params.box_hi) < params.n:
        raise ValueError("acceptance box is infeasible: its ceilings hold fewer than n rounds")
    lo, hi = (np.array(bound, dtype=float)[:, None] / params.n for bound in (params.box_lo, params.box_hi))

    def model(ws: np.ndarray) -> np.ndarray:
        """Model distributions (lose, win, no-test) at win probabilities ws, one per column."""
        return np.array([gg * (1.0 - ws), gg * ws, np.full_like(ws, 1.0 - gg)])

    grid = np.linspace(0.5, TSIRELSON_WIN, _SIGMA_GRID)
    s = 8.0 * (grid - 0.5)
    j0 = int(np.argmax(s > 2.0))  # the grid's scores above the classical bound
    halves = _halves(s[j0:])
    p_grid = np.tile(model(grid), _ORDER_CHUNK)
    chunks = []
    for j in range(0, len(alphas), _ORDER_CHUNK):
        a = alphas[j : j + _ORDER_CHUNK, None]
        # 1/a as a full array: numpy takes a broadcast exponent 0.5 as sqrt, which rounds differently
        inv_a = np.repeat(1.0 / a, _SIGMA_GRID - j0, axis=1)
        kappa = np.zeros((len(a), _SIGMA_GRID))
        kappa[:, j0:] = _sifted(w_key, w_rest, _factor(halves, a, inv_a, 2.0 ** (1.0 - a)), 1.0 - a)
        vals = _inner_min_vec(p_grid[:, : kappa.size], lo, hi, kappa.ravel(), np.repeat(a - 1.0, _SIGMA_GRID))
        chunks.append(vals.reshape(kappa.shape))
    vals = np.concatenate(chunks)
    i = np.argmin(vals, axis=1)
    lo_w, hi_w = grid[np.maximum(i - 1, 0)], grid[np.minimum(i + 1, len(grid) - 1)]

    terms = alphas, 1.0 / alphas, 2.0 ** (1.0 - alphas)
    one_ma, am1 = 1.0 - alphas, alphas - 1.0

    def refine(ws: np.ndarray) -> np.ndarray:
        s = 8.0 * (ws - 0.5)
        kappa = np.where(s > 2.0, _sifted(w_key, w_rest, _factor(_halves(s), *terms), one_ma), 0.0)
        return _inner_min_vec(model(ws), lo, hi, kappa, am1)

    _, fc, _, fd = golden_min(refine, lo_w, hi_w, 50)
    out = np.minimum(vals[np.arange(len(alphas)), i], np.minimum(fc, fd))
    return float(out[0]) if single else out


@dataclass(frozen=True)
class RenyiResult:
    length: float  # zero-clamped
    raw_length: float
    rate: float
    alpha: float
    h_alpha_bits: float


def key_length_renyi(
    params: ProtocolParams,
    config: RenyiConfig,
    leak_ec_bits: float,
) -> RenyiResult:
    """Secret key length of the box-accepted protocol.

    params supplies the block size, the test fractions and the box the
    run tested; an accepted run has at most n - box_lo_perp test rounds.
    With config.alpha unset, the order is optimized on
    a log-spaced grid over (1, 2] (_ALPHA_GRID points) and refined
    once around the best point; each pass is one h_alpha call over all
    its orders.
    """
    n, ga, gb = params.n, params.gamma_a, params.gamma_b
    delta_low_perp = (1.0 - ga * gb) - params.box_lo[2] / n

    def raw_length(alpha, ha):
        return (
            n * ha
            - n * (ga * gb + delta_low_perp)
            - leak_ec_bits
            - LEAK_EV_BITS
            - alpha / (alpha - 1.0) * math.log2(1.0 / config.eps_sec)
            + 2.0
        )

    if config.alpha is not None:
        ha = h_alpha(config, params)
        ell = raw_length(config.alpha, ha)
        return RenyiResult(max(ell, 0.0), ell, ell / n, config.alpha, ha)

    def best_of(alphas: np.ndarray) -> tuple[float, float, float]:
        ha = h_alpha(config, params, alphas=alphas)
        ell = raw_length(alphas, ha)
        i = int(np.argmax(ell))  # the first order on a tie
        return float(ell[i]), float(alphas[i]), float(ha[i])

    best = best_of(np.unique(np.minimum(1.0 + np.logspace(-5.0, 0.0, _ALPHA_GRID), 2.0)))

    # one refinement pass: a finer log grid spanning one coarse spacing
    spacing = 10.0 ** (5.0 / (_ALPHA_GRID - 1))
    lo = max((best[1] - 1.0) / spacing, 1e-7)
    hi = min((best[1] - 1.0) * spacing, 1.0)
    refined = best_of(np.minimum(1.0 + np.logspace(math.log10(lo), math.log10(hi), 16), 2.0))
    if refined[0] > best[0]:
        best = refined

    ell, alpha, ha = best
    return RenyiResult(max(ell, 0.0), ell, ell / n, alpha, ha)
