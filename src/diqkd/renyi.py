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
per search pass, in the same call as the rest of the score grid for all
orders; then a short lockstep golden-section refinement runs for all of
them.  certified_h_alpha is the reported value at the chosen order, a
certified lower bound by convex tangent cells and branch and bound; it
takes nothing from h_alpha, so the search's step count can move the
chosen order but never the value reported at a given order.  The
solver takes all rows' three outcomes as one (3, ...) array, every
entry positive.

Both functions, and key_length_renyi above them, take a sequence of
protocols, the points of a sweep, and evaluate them in lockstep: each
array call holds the rows of every point, with each point's box and
test fractions beside its rows.  The solver is row-wise, minima are
exact and the golden steps elementwise, so each point's values are bit
for bit those of a one-point call; a sweep pays the per-call cost of
numpy once per step rather than once per point.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

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
_GRID_ROWS = 4096  # rows per grid call of the order search, which holds one point's 64-order grid
_COARSE_ALPHAS = np.minimum(1.0 + np.logspace(-5.0, 0.0, _ALPHA_GRID), 2.0)  # increasing already; np.unique imports numpy.ma


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

    p holds one model distribution per row along its trailing axes,
    shape (3, ...), and must be positive everywhere; lo and hi are the
    box bounds, (3, ...) arrays that broadcast against p: a (3, points, 1)
    column per point against (3, points, rows) rows, a (3, 1) column
    against (3, rows), or one column per row.  The caller has checked
    that the ceilings can carry the mass.  kappa and am1 = alpha - 1 give
    one value per row, or broadcast.  The KKT solution is q_c(t) =
    clip(t p_c w_c, lo_c, hi_c), with w_c = 1 except w_perp =
    2^{-(alpha-1) kappa}, at the scale t where the mass sum_c q_c(t) is
    1.  The mass is nondecreasing and piecewise linear in t with
    breakpoints lo_c/(p_c w_c) and hi_c/(p_c w_c): the segment that
    brackets 1 runs from the largest breakpoint whose mass falls short of
    1 to the smallest whose mass reaches it, and t is interpolated
    linearly in it, exact up to rounding.  If the floors alone carry the
    mass, q is the floor.  Sums over the outcomes run left to right,
    (q_0 + q_1) + q_perp.  Every operation is elementwise or a min or max
    over the outcomes, so a row's value does not depend on the rows
    solved beside it.
    """
    if not p.min() > 0.0:
        raise ValueError("model distributions must be positive in every outcome")
    if lo.ndim < p.ndim:  # the box's axes after the outcomes align with p's trailing axes
        lo, hi = (x.reshape((3,) + (1,) * (p.ndim - x.ndim) + x.shape[1:]) for x in (lo, hi))
    pw = p.copy()
    pw[2] *= 2.0 ** (-am1 * kappa)

    def mass(t: np.ndarray) -> np.ndarray:
        """Box mass at scales t of shape (j, ...rows)."""
        q = pw[:, None] * t
        np.maximum(q, lo[:, None], out=q)
        np.minimum(q, hi[:, None], out=q)
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


def _check_points(params: Sequence[ProtocolParams]) -> None:
    """Reject a lone ProtocolParams, which as a tuple would be taken for a sequence of its fields."""
    if isinstance(params, ProtocolParams):
        raise TypeError("need a sequence of ProtocolParams, one per point, got a lone ProtocolParams")


def _outer_problem(params: Sequence[ProtocolParams]) -> np.ndarray:
    """One column per point: its sift weights, gamma_a gamma_b and its box as frequencies, shape (9, points).

    The rows are w_key, w_rest, gamma_a gamma_b, the floors and the
    ceilings.  The test fractions and the box come from each point's
    params; a frequency q_c ranges over [box_lo_c / n, box_hi_c / n], and
    a box whose ceilings sum to fewer than n counts is infeasible.
    """
    if not params:
        raise ValueError("no protocol to evaluate")
    if any(sum(pt.box_hi) < pt.n for pt in params):
        raise ValueError("acceptance box is infeasible: its ceilings hold fewer than n rounds")
    return np.array(
        [
            (*sift_weights(pt.gamma_a, pt.gamma_b), pt.gamma_a * pt.gamma_b, *(c / pt.n for c in pt.box_lo + pt.box_hi))
            for pt in params
        ]
    ).T


def _model(ws: np.ndarray, gg) -> np.ndarray:
    """Model distributions (lose, win, no-test) at win probabilities ws and test products gg, shape (3, ...)."""
    win = gg * ws
    out = np.empty((3,) + win.shape)
    np.multiply(gg, 1.0 - ws, out=out[0])
    out[1], out[2] = win, 1.0 - gg
    return out


def _kappa(ws, w_key, w_rest, terms, one_ma, lone=False):
    """Sifted entropy at win probabilities ws, zero at and below 3/4; terms are a, 1/a and 2^(1-a).

    With lone, the order is one number per point, which a one-point call
    hands numpy as a scalar exponent: numpy takes a scalar 1/2 as sqrt
    and 2 as square, which round differently from its power.  So the
    rows at a = 2 are recomputed with scalar exponents, and a batch
    equals its one-point calls.
    """
    s = 8.0 * (ws - 0.5)
    halves = _halves(s)
    factor = _factor(halves, *terms)
    if lone and np.size(terms[0]) > 1 and np.any(terms[0] == 2.0):
        two = np.broadcast_to(terms[0] == 2.0, factor.shape)
        at_two = [np.broadcast_to(x, factor.shape)[two] for x in (*halves, terms[2])]
        factor[two] = _factor(at_two[:2], 2.0, 0.5, at_two[2])
    return np.where(s > 2.0, _sifted(w_key, w_rest, factor, one_ma), 0.0)


# the score grid, also the certificate's first cell edges; its first _J0 scores lie at or below the classical
# bound, where kappa = 0
_GRID = np.linspace(0.5, TSIRELSON_WIN, _SIGMA_GRID)
_J0 = int(np.argmax(8.0 * (_GRID - 0.5) > 2.0))
_HALVES = _halves(8.0 * (_GRID[_J0:] - 0.5))
_FLAT_WS = np.append(_GRID[:_J0], _KINK)  # the rows whose minimiser no order changes


def _grid_stage(outer, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The score grid's values, shape (points, orders, _SIGMA_GRID), and the kink's, (points, orders).

    outer is _outer_problem's columns and alphas holds each point's
    orders, shape (points, orders).  Where kappa = 0 (_FLAT_WS) the
    scaled model, and so the minimiser q, is the same at every order:
    those rows are solved once per point at alpha - 1 = 1, which gives
    D(q||p), and each order's value is D / (alpha - 1), the value a solve
    at that order rounds to.  They ride along after the point's rows with
    kappa > 0, which are solved for all orders at once.  A call takes as
    many points as fit in _GRID_ROWS rows, and at least one, so a
    search's peak memory does not grow with its points.
    """
    points, orders = alphas.shape
    gg = outer[2, :, None]
    a = alphas[:, :, None]
    # 1/a as a full array: numpy takes a broadcast exponent 0.5 as sqrt, which rounds differently
    inv_a = np.repeat(1.0 / a, _SIGMA_GRID - _J0, axis=2)
    w_key, w_rest = outer[0, :, None, None], outer[1, :, None, None]
    kappa = _sifted(w_key, w_rest, _factor(_HALVES, a, inv_a, 2.0 ** (1.0 - a)), 1.0 - a)
    ones = np.ones((points, len(_FLAT_WS)))
    p = np.concatenate([np.tile(_model(_GRID[_J0:], gg), orders), _model(_FLAT_WS, gg)], axis=2)
    kappa = np.concatenate([kappa.reshape(points, -1), np.zeros_like(ones)], axis=1)
    am1 = np.concatenate([np.repeat(alphas - 1.0, _SIGMA_GRID - _J0, axis=1), ones], axis=1)
    step = max(_GRID_ROWS // kappa.shape[1], 1)
    lo, hi = outer[3:6, :, None], outer[6:, :, None]
    vals = np.concatenate(
        [
            _inner_min_vec(p[:, k], lo[:, k], hi[:, k], kappa[k], am1[k])
            for k in (slice(i, i + step) for i in range(0, points, step))
        ]
    )
    flat = vals[:, None, -len(_FLAT_WS) :] / (alphas - 1.0)[:, :, None]
    grid = vals[:, : -len(_FLAT_WS)].reshape(points, orders, -1)
    return np.concatenate([flat[:, :, :_J0], grid], axis=2), flat[:, :, _J0]


def h_alpha(params: Sequence[ProtocolParams], alphas: np.ndarray) -> np.ndarray:
    """Order-search estimate of the per-round entropy at each point of params and each Renyi order of alphas.

    alphas holds orders shared by every point, shape (orders,), or each
    point's own, shape (points, orders); the result is (points, orders).
    The worst case over scores and box frequencies is taken over the
    scores evaluated, so each value is an upper bound on the per-round
    entropy up to rounding (where it is 0, a value can be about -2e-12);
    the reported value is certified_h_alpha's, certified and clamped at 0.
    The score runs on [1/2, (2+sqrt2)/4] (entropy clamped to zero at and
    below the classical point, where an attack only pays the divergence
    cost): a grid of _SIGMA_GRID points, _GOLDEN_STEPS golden-section
    steps around the best grid point, and the kink omega = 3/4, where the
    minimum sits at larger orders.

    All points and orders are evaluated at once, each entry of the
    result equal to that point and order's value as a one-point,
    one-order call: the grid and the kink take one solver call for as
    many points as fit in _GRID_ROWS rows (_grid_stage), and the
    refinements of all points and orders run in lockstep, in
    1 + _GOLDEN_STEPS calls.
    """
    _check_points(params)
    alphas = np.array(alphas, dtype=float, ndmin=2, order="C")
    if len(alphas) == 1 < len(params):
        alphas = alphas.repeat(len(params), axis=0)
    if len(alphas) != len(params):
        raise ValueError(f"need orders shared by all points or one row per point, got {len(alphas)} for {len(params)}")
    if not np.all(alphas > 1.0):
        raise ValueError(f"Renyi order must exceed 1, got {np.min(alphas)}")
    outer = _outer_problem(params)
    vals, kink = _grid_stage(outer, alphas)
    i = np.argmin(vals, axis=2)
    lo_w, hi_w = _GRID[np.maximum(i - 1, 0)], _GRID[np.minimum(i + 1, _SIGMA_GRID - 1)]

    terms = alphas, 1.0 / alphas, 2.0 ** (1.0 - alphas)
    one_ma, am1 = 1.0 - alphas, alphas - 1.0
    w_key, w_rest, gg = outer[:3, :, None]
    lo, hi, lone = outer[3:6, :, None], outer[6:, :, None], alphas.shape[1] == 1

    def refine(ws: np.ndarray) -> np.ndarray:
        kappa = _kappa(ws, w_key, w_rest, terms, one_ma, lone)
        return _inner_min_vec(_model(ws, gg), lo, hi, kappa, am1)

    _, fc, _, fd = golden_min(refine, lo_w, hi_w, _GOLDEN_STEPS)
    return np.minimum(np.minimum(vals.min(axis=2), kink), np.minimum(fc, fd))


def certified_h_alpha(params: Sequence[ProtocolParams], alphas: Sequence[float]) -> np.ndarray:
    """Certified lower bound on the per-round entropy at each point of params, at its Renyi order in (1, 2].

    alphas gives one order per point.  At a point with order alpha, the
    per-round entropy is the minimum, over win probabilities omega
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
    depends on alpha and params alone.  The points run in lockstep, the
    cells of all of them in one call per round; a point leaves the batch
    when its own rule stops it (no live cell, or its live cells would
    split past _CERT_CELLS), and its bound is the one it would get alone.

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
    _check_points(params)
    alphas = [float(alpha) for alpha in alphas]
    if len(alphas) != len(params):
        raise ValueError(f"need one order per point, got {len(alphas)} for {len(params)}")
    for alpha in alphas:
        if not 1.0 < alpha <= 2.0:
            raise ValueError(f"alpha={alpha} outside (1, 2]")
    # one column per point: the order terms a, 1/a, 2^(1-a), 1 - a and a - 1 as a one-point call computes them,
    # in Python floats, then _outer_problem's
    terms = np.array([(alpha, 1.0 / alpha, 2.0 ** (1.0 - alpha), 1.0 - alpha, alpha - 1.0) for alpha in alphas]).T
    cols = np.vstack([terms, _outer_problem(params)])
    points = len(params)
    active, counts = list(range(points)), [_SIGMA_GRID - 1] * points
    a, b = np.tile(_GRID[:-1], points), np.tile(_GRID[1:], points)
    pieces = np.arange(_CERT_SPLIT + 1) / _CERT_SPLIT
    p_min, best, bound = [np.inf] * points, [np.inf] * points, [np.inf] * points
    for rnd in range(_CERT_ROUNDS):
        # the cells run point by point; a lone point's columns are scalars, as in a one-point call, while
        # several points' are gathered for the cells and, for the solver, for each of the three row blocks
        at = active[0] if len(active) == 1 else np.repeat(active, counts)
        col = cols[:, at if len(active) == 1 else np.tile(at, 3)]
        c = len(a)
        m, h = (a + b) / 2.0, (b - a) / 2.0
        k_rows = _kappa(np.concatenate([a, a - 2.0 * h, m]), col[5], col[6], col[:3], col[3], True)
        k_a, k_left, k_m = k_rows[:c], k_rows[c : 2 * c], k_rows[2 * c :]
        sh = np.maximum(k_a - k_left, 0.0) / 2.0  # the secant slope times h
        p = _model(m, cols[7, at])
        tilt = np.exp(np.array([-h / (1.0 - m), h / m, np.zeros_like(m)]))
        rows = np.concatenate([p * tilt, p / tilt, p], axis=1)
        box = col[8:11].reshape(3, -1), col[11:].reshape(3, -1)
        vals = _inner_min_vec(rows, *box, np.concatenate([k_a + 2.0 * sh, k_a, k_m]), col[4])
        lower = np.maximum(np.minimum(vals[:c], vals[c : 2 * c]), 0.0)  # G >= 0
        # each point's own bookkeeping and stopping rule, on its cells
        keep, live = [], []
        for i, end, count in zip(active, np.cumsum(counts).tolist(), counts):
            cells = slice(end - count, end)
            p_min[i] = min(p_min[i], rows.reshape(3, 3, c)[:, :, cells].min())
            best[i] = min(best[i], vals[2 * c :][cells].min())
            point_live = lower[cells] < best[i] - _CERT_TOL * abs(best[i])
            n_live = int(point_live.sum())
            if n_live == 0 or n_live * _CERT_SPLIT > _CERT_CELLS or rnd == _CERT_ROUNDS - 1:
                bound[i] = min(bound[i], lower[cells].min())  # it leaves the batch
                point_live[:] = False
            else:
                bound[i] = min(bound[i], lower[cells][~point_live].min(initial=np.inf))
                keep.append((i, n_live * _CERT_SPLIT))
            live.append(point_live)
        if not keep:
            break
        active, counts = (list(x) for x in zip(*keep))
        live = np.concatenate(live)
        cut = a[live, None] + (b[live] - a[live])[:, None] * pieces
        cut[:, -1] = b[live]
        a, b = cut[:, :-1].ravel(), cut[:, 1:].ravel()
    # rounding: a row sums q_c log2(q_c / p_c) / (alpha - 1), whose magnitudes add up to at most
    # log2(3 / p_min) / (alpha - 1) (the entropy of q plus sum_c q_c log2(1 / p_c)), and q_perp kappa <= 1;
    # kappa is the log2 of a number near 1 over 1 - alpha, so it and its secant each carry about eps / (alpha - 1)
    eps = np.finfo(float).eps
    return np.array(
        [
            max(bd - 8.0 * eps * ((math.log2(3.0 / pm) + 3.0) / (alpha - 1.0) + 1.0), 0.0)
            for bd, pm, alpha in zip(bound, p_min, alphas)
        ]
    )


class RenyiResult(NamedTuple):
    length: float  # zero-clamped
    raw_length: float
    rate: float
    alpha: float
    h_alpha: float


def key_length_renyi(
    params: Sequence[ProtocolParams],
    eps_snd: float,
    leak_ec_bits: Sequence[float],
    alpha: Optional[float] = None,
) -> list[RenyiResult]:
    """Secret key length of each box-accepted protocol of params at total soundness eps_snd.

    Each point's params supply its block size, test fractions and the
    box the run tested, and leak_ec_bits its error-correction leakage; an
    accepted run has at most n - box_lo_perp test rounds.  eps_snd, in
    (EPS_EC, 1), is split as in the accumulation bound: the tag takes
    EPS_EC and the secrecy term gets eps_sec = eps_snd - EPS_EC.  With
    alpha unset, each point's order is chosen from h_alpha's estimates on
    a log-spaced grid over (1, 2] (_ALPHA_GRID points), refined once
    around its best point; each pass is one h_alpha call over all points
    and orders.  The reported entropy and lengths are certified_h_alpha's
    at the chosen orders, or at a fixed alpha in (1, 2], one call for all
    points.  Each result equals the point's result alone, bit for bit.
    """
    _check_points(params)
    if not EPS_EC < eps_snd < 1.0:
        raise ValueError(f"eps_snd={eps_snd} outside (EPS_EC, 1)")
    if len(leak_ec_bits) != len(params):
        raise ValueError(f"need one leakage per point, got {len(leak_ec_bits)} for {len(params)}")
    n = [pt.n for pt in params]
    # n times the charge per round: gamma_a gamma_b for the test rounds, plus the shortfall of the no-test floor
    charge = [
        pt.n * (pt.gamma_a * pt.gamma_b + ((1.0 - pt.gamma_a * pt.gamma_b) - pt.box_lo[2] / pt.n)) for pt in params
    ]
    log_eps = math.log2(1.0 / (eps_snd - EPS_EC))

    def raw_length(alpha, ha, n, charge, leak):
        return n * ha - charge - leak - LEAK_EV_BITS - alpha / (alpha - 1.0) * log_eps + 2.0

    columns = np.array([n, charge, leak_ec_bits], dtype=float)[:, :, None]

    def best_of(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each point's best estimated length over its orders and that order, the first on a tie."""
        ell = raw_length(alphas, h_alpha(params, alphas), *columns)
        i, k = np.argmax(ell, axis=1), np.arange(len(ell))
        return ell[k, i], alphas[k, i]

    if alpha is None:
        ell, alphas = best_of(np.broadcast_to(_COARSE_ALPHAS, (len(params), _ALPHA_GRID)))
        # one refinement pass: a finer log grid spanning one coarse spacing around each point's order
        spacing = 10.0 ** (5.0 / (_ALPHA_GRID - 1))
        ends = [(math.log10(max((a - 1.0) / spacing, 1e-7)), math.log10(min((a - 1.0) * spacing, 1.0))) for a in alphas]
        ell_fine, alphas_fine = best_of(np.minimum(1.0 + np.logspace(*np.array(ends).T, 16).T, 2.0))
        alphas = np.where(ell_fine > ell, alphas_fine, alphas)
    else:
        alphas = np.full(len(params), float(alpha))

    results = []
    for a, ha, *point in zip(alphas.tolist(), certified_h_alpha(params, alphas).tolist(), n, charge, leak_ec_bits):
        ell = raw_length(a, ha, *point)
        results.append(RenyiResult(max(ell, 0.0), ell, ell / point[0], a, ha))
    return results
