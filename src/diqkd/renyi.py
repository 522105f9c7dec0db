"""Finite-size key length from Renyi-order entropy accumulation.

The acceptance test is a per-symbol frequency box around the honest test
distribution over {0, 1, perp}.  Security rests on a single-round bound:
for any attack producing CHSH score S, the order-alpha conditional
entropy of the key bit satisfies

    2^((1-a) H_a) = 2^(1-a) [ ((1-r)/2)^(1/a) + ((1+r)/2)^(1/a) ]^a,
    r = sqrt(S^2/4 - 1),

which the sifting step dilutes by known weights.  The certified
per-round quantity h_alpha is a two-level minimization: an adversarial
score on an outer grid (entropy clamped to zero below the classical
bound, where only the divergence term protects), and an inner convex
minimization over the box, solved exactly by its KKT conditions
(clipped proportional scaling with a monotone root-find on the scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .eat import LEAK_EV_BITS
from .mathcore import TSIRELSON_CHSH, TSIRELSON_WIN, Distribution3, binomial_box, golden_min
from .protocol import ProtocolParams

__all__ = [
    "AcceptanceSet",
    "RenyiConfig",
    "q_honest",
    "build_acceptance_set",
    "renyi_entropy_factor",
    "renyi_key_entropy",
    "sift_weights",
    "sifted_entropy_bound",
    "h_alpha",
    "RenyiResult",
    "key_length_renyi",
]


@dataclass(frozen=True)
class AcceptanceSet:
    """Frequency box around the honest test distribution, per symbol (0, 1, perp)."""

    q_hon: Distribution3
    delta_low: tuple[float, float, float]
    delta_upp: tuple[float, float, float]

    def __post_init__(self) -> None:
        if any(d < 0 for d in self.delta_low) or any(d < 0 for d in self.delta_upp):
            raise ValueError("box deviations must be nonnegative")
        if not (self.lower().sum() <= 1.0 + 1e-12 <= self.upper().sum() + 2e-12):
            raise ValueError("box does not intersect the probability simplex")

    def lower(self) -> np.ndarray:
        return np.maximum(self.q_hon.as_array() - np.asarray(self.delta_low), 0.0)

    def upper(self) -> np.ndarray:
        return np.minimum(self.q_hon.as_array() + np.asarray(self.delta_upp), 1.0)

    def contains(self, freq: np.ndarray) -> bool:
        f = np.asarray(freq, dtype=float)
        return bool(np.all(f >= self.lower() - 1e-15) and np.all(f <= self.upper() + 1e-15))

    @property
    def delta_low_perp(self) -> float:
        return self.delta_low[2]


@dataclass(frozen=True)
class RenyiConfig:
    """Renyi order (None = optimize), secrecy level, and search resolutions."""

    alpha: Optional[float] = None
    eps_sec: float = 1e-5
    sigma_grid: int = 192
    alpha_grid: int = 64

    def __post_init__(self) -> None:
        if self.alpha is not None and not 1.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha={self.alpha} outside (1, 2]")
        if not 0.0 < self.eps_sec < 1.0:
            raise ValueError(f"eps_sec={self.eps_sec} outside (0, 1)")
        if self.sigma_grid < 8 or self.alpha_grid < 4:
            raise ValueError("grid resolutions too small")


def q_honest(gamma_a: float, gamma_b: float, omega_exp: float) -> Distribution3:
    """Honest per-round test distribution (lose, win, no-test)."""
    gg = gamma_a * gamma_b
    return Distribution3(gg * (1.0 - omega_exp), gg * omega_exp, 1.0 - gg)


def build_acceptance_set(q_hon: Distribution3, n: int, eps_com_at: float) -> AcceptanceSet:
    """Box with per-symbol binomial tails at level eps_com_at / 6.

    The union bound over six tails keeps the honest abort probability at
    or below eps_com_at.
    """
    level = eps_com_at / 6.0
    lows, upps = [], []
    for p in q_hon.as_array():
        if p in (0.0, 1.0):
            # degenerate symbol: the frequency is deterministic
            lows.append(0.0)
            upps.append(0.0)
            continue
        dl, du = binomial_box(n, float(p), level)
        lows.append(dl)
        upps.append(du)
    return AcceptanceSet(q_hon, tuple(lows), tuple(upps))


def renyi_entropy_factor(s_sigma: float, alpha: float) -> float:
    """2^{(1-alpha) H} for the strongest attack at CHSH score s_sigma.

    Scores at or below the classical bound certify nothing: the factor
    clamps to 1 (zero entropy).  Scores above 2 sqrt 2 are unphysical.
    """
    if s_sigma > TSIRELSON_CHSH + 1e-12:
        raise ValueError(f"CHSH score {s_sigma} exceeds 2 sqrt 2")
    if alpha <= 1.0:
        raise ValueError(f"Renyi order must exceed 1, got {alpha}")
    if s_sigma <= 2.0:
        return 1.0
    r = math.sqrt(min(s_sigma * s_sigma / 4.0 - 1.0, 1.0))
    bracket = ((1.0 - r) / 2.0) ** (1.0 / alpha) + ((1.0 + r) / 2.0) ** (1.0 / alpha)
    return 2.0 ** (1.0 - alpha) * bracket**alpha


def renyi_key_entropy(s_sigma: float, alpha: float) -> float:
    """Certified key-bit entropy in bits: log2(factor) / (1 - alpha)."""
    return math.log2(renyi_entropy_factor(s_sigma, alpha)) / (1.0 - alpha)


def sift_weights(gamma_a: float, gamma_b: float) -> tuple[float, float]:
    """(key weight, rest weight) of the entropy dilution; they sum to 1."""
    gg = gamma_a * gamma_b
    w_key = (1.0 - gamma_b - 0.5 * gamma_a * (1.0 - gamma_b)) / (1.0 - gg)
    w_rest = ((1.0 - gamma_a) * gamma_b + 0.5 * gamma_a * (1.0 - gamma_b)) / (1.0 - gg)
    return w_key, w_rest


def sifted_entropy_bound(alpha: float, gamma_a: float, gamma_b: float, s_sigma: float) -> float:
    """Entropy of the kept rounds after averaging key and sifted contributions."""
    w_key, w_rest = sift_weights(gamma_a, gamma_b)
    val = w_key * renyi_entropy_factor(s_sigma, alpha) + w_rest
    return math.log2(val) / (1.0 - alpha)


def _inner_min_vec(
    p: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    kappa: np.ndarray,
    alpha: float,
    iters: int = 90,
) -> np.ndarray:
    """Exact inner minimum of D(q||p)/(alpha-1) + q_perp kappa over the box.

    Vectorized over the leading axis of p (the outer score grid).  The
    KKT solution is q_c = clip(t p_c w_c, lo_c, hi_c) with w scaling only
    the perp coordinate; the simplex constraint pins t by bisection.
    Cells whose support cannot carry the box mass come back as +inf.
    """
    g = p.shape[0]
    w = np.ones_like(p)
    w[:, 2] = 2.0 ** (-(alpha - 1.0) * kappa)
    pw = p * w
    support = p > 0.0

    # coordinates outside the model support are forced to the box floor,
    # which must be 0 for the cell to be feasible at all; the remaining
    # ceilings must still be able to carry the full probability mass
    forced_bad = (~support) & (lo[None, :] > 0.0)
    infeasible = forced_bad.any(axis=1)
    infeasible |= np.where(support, hi[None, :], 0.0).sum(axis=1) < 1.0 - 1e-12

    t_lo = np.zeros(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(support, hi[None, :] / np.maximum(pw, 1e-300), 0.0)
    t_hi = 2.0 * np.maximum(ratio.max(axis=1), 1.0)

    def mass(t: np.ndarray) -> np.ndarray:
        q = np.clip(pw * t[:, None], lo[None, :], hi[None, :])
        q = np.where(support, q, 0.0)
        return q.sum(axis=1)

    for _ in range(iters):
        mid = 0.5 * (t_lo + t_hi)
        too_small = mass(mid) < 1.0
        t_lo = np.where(too_small, mid, t_lo)
        t_hi = np.where(too_small, t_hi, mid)

    t = 0.5 * (t_lo + t_hi)
    q = np.clip(pw * t[:, None], lo[None, :], hi[None, :])
    q = np.where(support, q, 0.0)
    norm = q.sum(axis=1)
    ok = norm > 0.5
    q = q / np.where(ok, norm, 1.0)[:, None]

    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0.0, q * np.log2(np.maximum(q, 1e-300) / np.maximum(p, 1e-300)), 0.0)
    div = terms.sum(axis=1)
    obj = div / (alpha - 1.0) + q[:, 2] * kappa
    return np.where(infeasible | ~ok, np.inf, obj)


def h_alpha(
    config: RenyiConfig,
    gamma_a: float,
    gamma_b: float,
    acc: AcceptanceSet,
    omega_bounds: Optional[tuple[float, float]] = None,
) -> float:
    """Certified per-round entropy: worst case over scores and box frequencies.

    The outer score search runs on [1/2, (2+sqrt2)/4] (entropy clamped to
    zero at and below the classical point, where an attack only pays the
    divergence cost), localized on a grid of config.sigma_grid cells and
    polished by golden-section refinement around the best cell.
    """
    if config.alpha is None:
        raise ValueError("h_alpha needs a fixed Renyi order in config.alpha")
    alpha = config.alpha
    lo_box, hi_box = acc.lower(), acc.upper()
    w_lo, w_hi = omega_bounds if omega_bounds is not None else (0.5, TSIRELSON_WIN)
    if not 0.0 <= w_lo <= w_hi <= 1.0:
        raise ValueError("invalid omega bounds")
    gg = gamma_a * gamma_b

    def kappa_of(ws: np.ndarray) -> np.ndarray:
        out = np.zeros_like(ws)
        for i, wv in enumerate(ws):
            s = 8.0 * (wv - 0.5)
            out[i] = sifted_entropy_bound(alpha, gamma_a, gamma_b, s) if s > 2.0 else 0.0
        return out

    def objective_grid(ws: np.ndarray) -> np.ndarray:
        p = np.stack([gg * (1.0 - ws), gg * ws, np.full_like(ws, 1.0 - gg)], axis=1)
        return _inner_min_vec(p, lo_box, hi_box, kappa_of(ws), alpha)

    if w_hi - w_lo < 1e-15:
        val = objective_grid(np.array([w_lo]))[0]
        if not np.isfinite(val):
            raise ValueError("acceptance box is infeasible for the model distribution")
        return float(val)

    grid = np.linspace(w_lo, w_hi, config.sigma_grid)
    vals = objective_grid(grid)
    if not np.isfinite(vals).any():
        raise ValueError("acceptance box is infeasible for the model distribution")
    i = int(np.argmin(vals))

    def scalar_obj(wv: float) -> float:
        return float(objective_grid(np.array([wv]))[0])

    _, fc, _, fd = golden_min(scalar_obj, float(grid[max(0, i - 1)]), float(grid[min(len(grid) - 1, i + 1)]), 50)
    return float(min(float(vals[i]), fc, fd))


@dataclass(frozen=True)
class RenyiResult:
    length: float  # zero-clamped
    raw_length: float
    rate: float
    alpha: float
    h_alpha_bits: float


def _ell_at_alpha(
    n: int,
    alpha: float,
    config: RenyiConfig,
    gamma_a: float,
    gamma_b: float,
    acc: AcceptanceSet,
    leak_ec_bits: float,
) -> tuple[float, float]:
    cfg = replace(config, alpha=alpha)
    ha = h_alpha(cfg, gamma_a, gamma_b, acc)
    gg = gamma_a * gamma_b
    ell = (
        n * ha
        - n * (gg + acc.delta_low_perp)
        - leak_ec_bits
        - LEAK_EV_BITS
        - alpha / (alpha - 1.0) * math.log2(1.0 / config.eps_sec)
        + 2.0
    )
    return ell, ha


def key_length_renyi(
    params: ProtocolParams,
    config: RenyiConfig,
    acc: AcceptanceSet,
    leak_ec_bits: float,
) -> RenyiResult:
    """Secret key length of the box-accepted protocol.

    params supplies the block size and test fractions; acc is the box
    the run tested.  With config.alpha unset, the order is optimized on
    a log-spaced grid over (1, 2] (config.alpha_grid points) and refined
    once around the best point.
    """
    n, ga, gb = params.n, params.gamma_a, params.gamma_b
    if config.alpha is not None:
        ell, ha = _ell_at_alpha(n, config.alpha, config, ga, gb, acc, leak_ec_bits)
        return RenyiResult(max(ell, 0.0), ell, ell / n, config.alpha, ha)

    coarse = 1.0 + np.logspace(-5.0, 0.0, config.alpha_grid)
    coarse = np.minimum(coarse, 2.0)
    best = None
    for a in np.unique(coarse):
        ell, ha = _ell_at_alpha(n, float(a), config, ga, gb, acc, leak_ec_bits)
        if best is None or ell > best[0]:
            best = (ell, float(a), ha)

    # one refinement pass: a finer log grid spanning one coarse spacing
    spacing = 10.0 ** (5.0 / (config.alpha_grid - 1))
    lo = max((best[1] - 1.0) / spacing, 1e-7)
    hi = min((best[1] - 1.0) * spacing, 1.0)
    for a in 1.0 + np.logspace(math.log10(lo), math.log10(hi), 16):
        a = float(min(a, 2.0))
        ell, ha = _ell_at_alpha(n, a, config, ga, gb, acc, leak_ec_bits)
        if ell > best[0]:
            best = (ell, a, ha)

    ell, alpha, ha = best
    return RenyiResult(max(ell, 0.0), ell, ell / n, alpha, ha)
