"""Finite-size key length from Renyi-order entropy accumulation.

The acceptance test is the run's box of count bounds over the test
symbols {0, 1, perp} (ProtocolParams.box_lo and box_hi), read here as
frequency bounds L/n and H/n.  Security rests on a single-round bound:
for any attack producing CHSH score S, the order-alpha conditional
entropy of the key bit satisfies

    2^((1-a) H_a) = 2^(1-a) [ ((1-r)/2)^(1/a) + ((1+r)/2)^(1/a) ]^a,
    r = sqrt(S^2/4 - 1),

which the sifting step dilutes by known weights (Arqand, Hahn & Tan,
arXiv:2405.05912).  The per-round quantity is a two-level minimization:
an adversarial score (entropy clamped to zero below the classical
bound, where only the divergence term protects), and an inner convex
minimization over the box.  The inner problem is solved in closed form:
its KKT point is a clipped proportional scaling of the model
distribution, and the scale is read off the piecewise-linear box mass
between its breakpoints, with no iteration.

Two functions take the outer minimum.  h_alpha is the order search's
estimate, an upper bound on it: every Renyi order of a search is
evaluated in the same array calls.  Where the entropy term is off (the
grid at and below the classical point, and the kink omega = 3/4) the
minimiser does not depend on the order, so those rows are solved once
per search pass; the rest of the score grid is one call for all orders,
then a short lockstep golden-section refinement for all of them.
certified_h_alpha is the reported value at the chosen order, a
certified lower bound by convex tangent cells and branch and bound; it
takes nothing from h_alpha, so the search's step count can move the
chosen order but never the value reported at a given order.  The
solver takes all rows' three outcomes as one (3, rows) array, every
entry positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .eat import EPS_EC, LEAK_EV_BITS
from .mathcore import TSIRELSON_CHSH, TSIRELSON_WIN, golden_min
from .protocol import ProtocolParams

__all__ = [
    "renyi_entropy_factor",
    "renyi_key_entropy",
    "sift_weights",
    "sifted_entropy_bound",
    "h_alpha",
    "certified_h_alpha",
    "RenyiResult",
    "key_length_renyi",
]

_SIGMA_GRID = 192  # outer score grid cells on [1/2, (2+sqrt2)/4]
_ALPHA_GRID = 64  # log-spaced Renyi orders of the coarse order search
_GOLDEN_STEPS = 10  # golden-section steps of the order search's score refinement
_KINK = 0.75  # the win probability at the classical bound, where the entropy term switches on
_CERT_SPLIT = 16  # pieces per surviving cell in each round of the certificate
_CERT_ROUNDS = 12  # round cap of the certificate; its bound is sound at any round
_CERT_CELLS = 4096  # live-cell cap of the certificate, which keeps its rows' memory flat
_CERT_TOL = 1e-9  # relative gap below the best evaluated value at which a cell is dropped


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


def _outer_problem(params: ProtocolParams):
    """The sift weights, the model at win probabilities ws, and the box as (3, 1) frequency columns.

    The test fractions and the box come from params; a frequency q_c
    ranges over [box_lo_c / n, box_hi_c / n], and a box whose ceilings
    sum to fewer than n counts is infeasible.
    """
    w_key, w_rest = sift_weights(params.gamma_a, params.gamma_b)
    gg = params.gamma_a * params.gamma_b
    if sum(params.box_hi) < params.n:
        raise ValueError("acceptance box is infeasible: its ceilings hold fewer than n rounds")
    lo, hi = (np.array(bound, dtype=float)[:, None] / params.n for bound in (params.box_lo, params.box_hi))

    def model(ws: np.ndarray) -> np.ndarray:
        """Model distributions (lose, win, no-test) at win probabilities ws, one per column."""
        return np.array([gg * (1.0 - ws), gg * ws, np.full_like(ws, 1.0 - gg)])

    return w_key, w_rest, model, lo, hi


def _kappa(ws, w_key, w_rest, terms, one_ma):
    """Sifted entropy at win probabilities ws, zero at and below 3/4; terms are a, 1/a and 2^(1-a)."""
    s = 8.0 * (ws - 0.5)
    return np.where(s > 2.0, _sifted(w_key, w_rest, _factor(_halves(s), *terms), one_ma), 0.0)


# the score grid, also the certificate's first cell edges; its first _J0 scores lie at or below the classical
# bound, where kappa = 0
_GRID = np.linspace(0.5, TSIRELSON_WIN, _SIGMA_GRID)
_J0 = int(np.argmax(8.0 * (_GRID - 0.5) > 2.0))
_HALVES = _halves(8.0 * (_GRID[_J0:] - 0.5))
_FLAT_WS = np.append(_GRID[:_J0], _KINK)  # the rows whose minimiser no order changes


def _grid_stage(outer, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The score grid's values at every order, shape (orders, _SIGMA_GRID), and the kink's, one per order.

    outer is _outer_problem's tuple.  Where kappa = 0 (_FLAT_WS) the
    scaled model, and so the minimiser q, is the same at every order:
    those rows are solved once at alpha - 1 = 1, which gives D(q||p),
    and each order's value is D / (alpha - 1), the value a solve at that
    order rounds to.  The rows with kappa > 0 are solved for all orders
    in one call.
    """
    w_key, w_rest, model, lo, hi = outer
    am1 = alphas - 1.0
    flat = _inner_min_vec(model(_FLAT_WS), lo, hi, 0.0, 1.0) / am1[:, None]
    a = alphas[:, None]
    # 1/a as a full array: numpy takes a broadcast exponent 0.5 as sqrt, which rounds differently
    inv_a = np.repeat(1.0 / a, _SIGMA_GRID - _J0, axis=1)
    kappa = _sifted(w_key, w_rest, _factor(_HALVES, a, inv_a, 2.0 ** (1.0 - a)), 1.0 - a)
    p = np.tile(model(_GRID[_J0:]), len(alphas))
    vals = _inner_min_vec(p, lo, hi, kappa.ravel(), np.repeat(am1, _SIGMA_GRID - _J0)).reshape(kappa.shape)
    return np.concatenate([flat[:, :_J0], vals], axis=1), flat[:, _J0]


def h_alpha(params: ProtocolParams, alphas: np.ndarray) -> np.ndarray:
    """Order-search estimate of the per-round entropy at each Renyi order of alphas.

    The worst case over scores and box frequencies is taken over the
    scores evaluated, so each value is an upper bound on the per-round
    entropy up to rounding (where it is 0, a value can be about -2e-12);
    the reported value is certified_h_alpha's, certified and clamped at 0.
    The score runs on [1/2, (2+sqrt2)/4] (entropy clamped to zero at and
    below the classical point, where an attack only pays the divergence
    cost): a grid of _SIGMA_GRID points, _GOLDEN_STEPS golden-section
    steps around the best grid point, and the kink omega = 3/4, where the
    minimum sits at larger orders.

    All orders are evaluated at once, each entry of the result equal to
    that order's value as a one-order array: the grid and the kink take
    two solver calls in all (_grid_stage), and the refinements of all
    orders run in lockstep.
    """
    if not np.all(alphas > 1.0):
        raise ValueError(f"Renyi order must exceed 1, got {np.min(alphas)}")
    outer = _outer_problem(params)
    w_key, w_rest, model, lo, hi = outer
    vals, kink = _grid_stage(outer, alphas)
    i = np.argmin(vals, axis=1)
    lo_w, hi_w = _GRID[np.maximum(i - 1, 0)], _GRID[np.minimum(i + 1, _SIGMA_GRID - 1)]

    terms = alphas, 1.0 / alphas, 2.0 ** (1.0 - alphas)
    one_ma, am1 = 1.0 - alphas, alphas - 1.0

    def refine(ws: np.ndarray) -> np.ndarray:
        return _inner_min_vec(model(ws), lo, hi, _kappa(ws, w_key, w_rest, terms, one_ma), am1)

    _, fc, _, fd = golden_min(refine, lo_w, hi_w, _GOLDEN_STEPS)
    return np.minimum(np.minimum(vals[np.arange(len(alphas)), i], kink), np.minimum(fc, fd))


def certified_h_alpha(params: ProtocolParams, alpha: float) -> float:
    """Certified lower bound on the per-round entropy at one Renyi order alpha in (1, 2].

    The per-round entropy is the minimum, over win probabilities omega
    in [1/2, (2+sqrt2)/4] and box frequencies q, of

        G(q, omega) = D(q || p_omega)/(alpha - 1) + q_perp kappa(omega),

    with p_omega = (gg (1 - omega), gg omega, 1 - gg), D in bits and kappa
    the sifted entropy, zero at and below omega = 3/4.  For each q, G is
    convex in omega: its D part is -(q_0 log2(1 - omega) + q_1 log2 omega)
    / (alpha - 1) plus terms free of omega, and kappa is convex (below).

    Cell bound.  On a cell [a, b] with midpoint m and half-width h, the
    D part lies above its tangent at m, and kappa(omega) above
    kappa(a) + s (omega - a) for omega >= a, where the left secant
    s = max(0, (kappa(a) - kappa(a - 2h)) / 2h) is at most every
    subgradient at a.  So on the cell G(q, omega) >= Gt(q) +
    (omega - m) c.q, where Gt is G at m with kappa(m) replaced by
    kappa(a) + s h, and c = (1/(1 - m), -1/m, 0) / ((alpha - 1) ln 2)
    + (0, 0, s).  The lesser minimum over q of Gt(q) +- h c.q bounds the
    cell from below; the linear term folds into the model, p_c becoming
    p_c 2^(-+(alpha - 1) h c_c) (for the no-test outcome, kappa becomes
    kappa(a) + s h +- s h), which _inner_min_vec solves exactly, so each
    cell costs two tilted rows.  A third row, G at m, updates the
    least value evaluated, U.

    Branch and bound.  Start from the _SIGMA_GRID - 1 grid cells.  Each
    round solves every live cell's three rows in one call, drops each
    cell whose bound reaches U - _CERT_TOL |U| and splits the rest
    _CERT_SPLIT ways.  The result is the least bound of any cell dropped
    or left at a cap, less a margin for float rounding.  G >= 0, since q
    and p_omega are distributions and kappa >= 0, so the bounds and the
    result are clamped at zero.  It takes nothing from h_alpha, so it
    depends on alpha and params alone.

    kappa is convex.  Above 3/4 write y = r^2 = 4 (2 omega - 1)^2 - 1,
    A, B = 1 +- r and beta = 1/alpha in [1/2, 1).  The key factor
    2^((1 - alpha) H) is the power mean F = ((A^beta + B^beta) / 2)^alpha,
    and kappa = log2(w_key F + w_rest) / (1 - alpha).  As 1 - alpha < 0
    and log2 is concave and increasing, kappa is convex where F is
    concave in omega; y is convex and increasing in omega, so it
    suffices that F is concave and nonincreasing in y.  With M = F^beta,
    dM/dy = beta (A^(beta - 1) - B^(beta - 1)) / 4r <= 0, and
    F'' = alpha M^(alpha - 2) ((alpha - 1) M'^2 + M M''), where

        (alpha - 1) M'^2 + M M'' = -beta (AB)^(beta - 1) E(beta) / 16 r^3,
        E(t) = 4 (1 - t) r / (1 - r^2) - 2r - (A^(1 - t) B^t - A^t B^(1 - t)).

    f(t) = A^(1 - t) B^t is convex and decreasing, so f'' decreases, the
    bracket f(t) - f(1 - t) is concave on [1/2, 1] and E is convex there,
    with E(1) = 0 and E'(1) = 4 (atanh r - r / (1 - r^2)) <= 0.  Hence
    E >= 0 and F'' <= 0.  So kappa is convex and nondecreasing on
    [3/4, (2+sqrt2)/4] and zero at 3/4; zero below, it is convex on the
    whole range.
    """
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"alpha={alpha} outside (1, 2]")
    w_key, w_rest, model, lo, hi = _outer_problem(params)
    terms = alpha, 1.0 / alpha, 2.0 ** (1.0 - alpha)
    a, b = _GRID[:-1], _GRID[1:]
    pieces = np.arange(_CERT_SPLIT + 1) / _CERT_SPLIT
    best, bound, p_min = np.inf, np.inf, np.inf
    for _ in range(_CERT_ROUNDS):
        m, h = (a + b) / 2.0, (b - a) / 2.0
        k_a, k_left, k_m = np.split(_kappa(np.concatenate([a, a - 2.0 * h, m]), w_key, w_rest, terms, 1.0 - alpha), 3)
        sh = np.maximum(k_a - k_left, 0.0) / 2.0  # the secant slope times h
        p = model(m)
        tilt = np.exp(np.array([-h / (1.0 - m), h / m, np.zeros_like(m)]))
        rows = np.concatenate([p * tilt, p / tilt, p], axis=1)
        p_min = min(p_min, rows.min())
        vals = _inner_min_vec(rows, lo, hi, np.concatenate([k_a + 2.0 * sh, k_a, k_m]), alpha - 1.0)
        lower = np.maximum(np.minimum(vals[: len(m)], vals[len(m) : 2 * len(m)]), 0.0)  # G >= 0
        best = min(best, vals[2 * len(m) :].min())
        live = lower < best - _CERT_TOL * abs(best)
        if not live.any() or live.sum() * _CERT_SPLIT > _CERT_CELLS:
            break
        bound = min(bound, lower[~live].min(initial=np.inf))
        cut = a[live, None] + (b[live] - a[live])[:, None] * pieces
        cut[:, -1] = b[live]
        a, b = cut[:, :-1].ravel(), cut[:, 1:].ravel()
    bound = min(bound, lower.min())
    # rounding: a row sums q_c log2(q_c / p_c) / (alpha - 1), whose magnitudes add up to at most
    # log2(3 / p_min) / (alpha - 1) (the entropy of q plus sum_c q_c log2(1 / p_c)), and q_perp kappa <= 1;
    # kappa is the log2 of a number near 1 over 1 - alpha, so it and its secant each carry about eps / (alpha - 1)
    margin = 8.0 * np.finfo(float).eps * ((math.log2(3.0 / p_min) + 3.0) / (alpha - 1.0) + 1.0)
    return max(bound - margin, 0.0)


@dataclass(frozen=True)
class RenyiResult:
    length: float  # zero-clamped
    raw_length: float
    rate: float
    alpha: float
    h_alpha_bits: float


def key_length_renyi(
    params: ProtocolParams,
    eps_snd: float,
    leak_ec_bits: float,
    alpha: Optional[float] = None,
) -> RenyiResult:
    """Secret key length of the box-accepted protocol at total soundness eps_snd.

    params supplies the block size, the test fractions and the box the
    run tested; an accepted run has at most n - box_lo_perp test rounds.
    eps_snd, in (EPS_EC, 1), is split as in the accumulation bound: the
    tag takes EPS_EC and the secrecy term gets eps_sec = eps_snd - EPS_EC.
    With alpha unset, the order is chosen from h_alpha's estimates on a
    log-spaced grid over (1, 2] (_ALPHA_GRID points), refined once around
    the best point; each pass is one h_alpha call over all its orders.
    The reported entropy and lengths are certified_h_alpha's at the
    chosen order, or at a fixed alpha in (1, 2].
    """
    if not EPS_EC < eps_snd < 1.0:
        raise ValueError(f"eps_snd={eps_snd} outside (EPS_EC, 1)")
    n, ga, gb = params.n, params.gamma_a, params.gamma_b
    eps_sec = eps_snd - EPS_EC
    delta_low_perp = (1.0 - ga * gb) - params.box_lo[2] / n

    def raw_length(alpha, ha):
        return (
            n * ha
            - n * (ga * gb + delta_low_perp)
            - leak_ec_bits
            - LEAK_EV_BITS
            - alpha / (alpha - 1.0) * math.log2(1.0 / eps_sec)
            + 2.0
        )

    def best_of(alphas: np.ndarray) -> tuple[float, float]:
        """The best estimated length over alphas and its order, the first order on a tie."""
        ell = raw_length(alphas, h_alpha(params, alphas))
        i = int(np.argmax(ell))
        return float(ell[i]), float(alphas[i])

    if alpha is None:
        ell, alpha = best_of(np.unique(np.minimum(1.0 + np.logspace(-5.0, 0.0, _ALPHA_GRID), 2.0)))
        # one refinement pass: a finer log grid spanning one coarse spacing
        spacing = 10.0 ** (5.0 / (_ALPHA_GRID - 1))
        lo = max((alpha - 1.0) / spacing, 1e-7)
        hi = min((alpha - 1.0) * spacing, 1.0)
        refined = best_of(np.minimum(1.0 + np.logspace(math.log10(lo), math.log10(hi), 16), 2.0))
        if refined[0] > ell:
            alpha = refined[1]

    ha = certified_h_alpha(params, alpha)
    ell = raw_length(alpha, ha)
    return RenyiResult(max(ell, 0.0), ell, ell / n, alpha, ha)
