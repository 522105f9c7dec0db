"""Finite-size key length by entropy accumulation, plus the asymptotic rates.

The per-round entropy certificate is the one-parameter family built from
the CHSH bound

    g(w) = 1 - h(1/2 + 1/2 sqrt(16 w (w - 1) + 3)),   w in (3/4, (2+sqrt2)/4),

extended affinely above a cut point w_t (the cut caps the gradient that
enters the second-order accumulation penalty).  All logarithms are base
2 and all entropies are in bits.

Two policy choices that the published operating point pins down are
fixed here:

* the soundness budget is split additively across the error-correction,
  privacy-amplification, smoothing, and accumulation-conditioning terms
  (``eps_ec + eps_pa + eps_s + eps_ea <= eps_snd``), the conservative
  decomposition of the lineage this analysis follows;
* the cut point is restricted to w_t >= w_in, i.e. the certificate is
  used in its exact branch rather than the affine-extension branch.
  There f(w_in, w_t) = g(w_in) does not depend on w_t, while the
  penalty grows with ceil(gamma_eff g'(w_t)), and g' never decreases
  because g is convex; so the certificate is a nonincreasing step
  function of w_t and is maximized in closed form at the smallest cut
  point, w_t = w_in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mathcore import TSIRELSON_CHSH, TSIRELSON_WIN, binary_entropy, chsh_to_winprob, rel_entropy_binary
from .protocol import ProtocolParams

__all__ = [
    "TSIRELSON_WIN",
    "LEAK_EV_BITS",
    "EatBudget",
    "HonestModel",
    "gamma_eff",
    "g_func",
    "g_slope",
    "f_func",
    "eta_func",
    "eta_opt",
    "eta_inf",
    "optimal_eps_tilde",
    "leak_ec",
    "completeness_ea",
    "delta_for_completeness",
    "vartheta",
    "EatResult",
    "key_length_eat",
    "asymptotic_rate_sifted",
    "asymptotic_rate_nosift",
]

LEAK_EV_BITS = 64.0  # verification tag length; fixed with eps_ec = 2^-61
_PT_EPS = 1e-9  # cut-point inset from the singular interval endpoints
_SPLIT_GRID_POINTS = 16  # log-grid points per budget fraction in the split search
_SPLIT_PASSES = 2  # full-span coordinate-descent passes before the two refinement passes
_SPLIT_FIELDS = ("eps_pa", "eps_s", "eps_s_prime", "eps_s_dprime", "eps_ea")


@dataclass(frozen=True)
class EatBudget:
    """Soundness budget of the accumulation analysis: the total and its error-correction part.

    key_length_eat optimizes the split of the rest into eps_pa, eps_s,
    eps_s_prime, eps_s_dprime and eps_ea.
    """

    eps_snd: float = 1e-5
    eps_ec: float = 2.0**-61

    def __post_init__(self) -> None:
        if not 0.0 < self.eps_snd < 1.0:
            raise ValueError(f"eps_snd={self.eps_snd} outside (0, 1)")
        if not 0.0 < self.eps_ec < self.eps_snd:
            raise ValueError("eps_ec must lie in (0, eps_snd)")


@dataclass(frozen=True)
class HonestModel:
    """Honest-device operating point: win probability, key error rate, test fractions."""

    omega: float
    q: float
    gamma_a: float
    gamma_b: float

    def __post_init__(self) -> None:
        if not 0.75 < self.omega <= TSIRELSON_WIN + 1e-15:
            raise ValueError(f"omega={self.omega} outside (3/4, (2+sqrt2)/4]")
        if not 0.0 <= self.q <= 0.5:
            raise ValueError(f"q={self.q} outside [0, 1/2]")
        for name in ("gamma_a", "gamma_b"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")

    @classmethod
    def from_chsh(cls, s: float, q: float, gamma_a: float, gamma_b: float) -> "HonestModel":
        return cls(chsh_to_winprob(s), q, gamma_a, gamma_b)


def gamma_eff(gamma_a: float, gamma_b: float) -> float:
    """Fraction of rounds whose outcomes sifting does not deterministically zero."""
    if not 0.0 <= gamma_a <= 1.0 or not 0.0 <= gamma_b <= 1.0:
        raise ValueError("test fractions must lie in [0, 1]")
    return 1.0 - gamma_a / 2.0 - gamma_b + 1.5 * gamma_a * gamma_b


def g_func(omega: float) -> float:
    """Certified single-round entropy at win probability omega, in bits.

    Continuously extended to g(3/4) = 0 and g((2+sqrt2)/4) = 1; outside
    the closed interval the certificate is undefined and this raises.
    """
    if not 0.75 <= omega <= TSIRELSON_WIN + 1e-15:
        raise ValueError(f"g is defined on [3/4, (2+sqrt2)/4], got {omega}")
    u = 16.0 * omega * (omega - 1.0) + 3.0
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    return 1.0 - binary_entropy(0.5 + 0.5 * math.sqrt(u))


def g_slope(omega: float) -> float:
    """Closed-form derivative of g_func at an interior point."""
    if not 0.75 < omega < TSIRELSON_WIN:
        raise ValueError(f"g_slope needs an interior point, got {omega}")
    u = 16.0 * omega * (omega - 1.0) + 3.0
    z = 0.5 + 0.5 * math.sqrt(u)
    return math.log2(z / (1.0 - z)) * (8.0 * omega - 4.0) / math.sqrt(u)


def f_func(omega: float, omega_t: float) -> float:
    """The certificate with affine extension: g below omega_t, tangent above."""
    if omega <= omega_t:
        return g_func(omega)
    return g_func(omega_t) + g_slope(omega_t) * (omega - omega_t)


def eta_func(
    omega: float,
    omega_t: float,
    eps: float,
    eps_e: float,
    n: int,
    gamma_a: float,
    gamma_b: float,
) -> float:
    """Accumulated entropy per round after the second-order penalty.

    gamma_eff f(omega, omega_t) minus (2/sqrt n)(log2 9 + ceil(gamma_eff
    g'(omega_t))) sqrt(1 - 2 log2(eps eps_e)).
    """
    ge = gamma_eff(gamma_a, gamma_b)
    grad = math.ceil(ge * g_slope(omega_t))
    pen = (2.0 / math.sqrt(n)) * (math.log2(9.0) + grad) * math.sqrt(1.0 - 2.0 * math.log2(eps * eps_e))
    return ge * f_func(omega, omega_t) - pen


def _cut_point(omega_in: float) -> float:
    """The maximizing cut point: w_in, kept inside the singular endpoints."""
    lo = max(0.75 + _PT_EPS, omega_in)
    hi = TSIRELSON_WIN - _PT_EPS
    return hi - _PT_EPS if lo >= hi else lo


def eta_opt(
    omega_in: float,
    eps: float,
    eps_e: float,
    n: int,
    gamma_a: float,
    gamma_b: float,
) -> float:
    """Certificate maximized over the cut point w_t >= omega_in, clamped at 0.

    The maximum is at the smallest cut point (module docstring), so this
    is one eta_func evaluation; at or below omega_in = 3/4 nothing is
    certified.
    """
    if omega_in <= 0.75:
        return 0.0
    return max(eta_func(omega_in, _cut_point(omega_in), eps, eps_e, n, gamma_a, gamma_b), 0.0)


def _eta_inf_raw(q: float, omega: float, gamma_a: float, gamma_b: float) -> float:
    return (1.0 - gamma_a / 2.0) * (1.0 - gamma_b) * binary_entropy(q) + (
        gamma_a * gamma_b
    ) * binary_entropy(omega)


def eta_inf(model: HonestModel) -> float:
    """Asymptotic reconciliation rate: what an optimal code leaks per round."""
    return _eta_inf_raw(model.q, model.omega, model.gamma_a, model.gamma_b)


def optimal_eps_tilde(n: int, eps_ec_com: float) -> float:
    """1-D log-grid scan for the eps_tilde minimizing the leak overhead."""
    grid = eps_ec_com * np.logspace(-12.0, -0.05, 200)
    best, best_v = None, math.inf
    for et in grid:
        v = _leak_overhead(n, eps_ec_com, float(et))
        if v < best_v:
            best, best_v = float(et), v
    return best


def _leak_overhead(n: int, eps_ec_com: float, eps_tilde: float) -> float:
    return (
        2.0 * math.log2(5.0) * math.sqrt(n * math.log2(2.0 / (eps_ec_com - eps_tilde) ** 2))
        + 2.0 * math.log2(1.0 / eps_tilde)
        + 4.0
    )


def leak_ec(n: int, model: HonestModel, eps_ec_com: float) -> float:
    """Bits disclosed by one-way reconciliation: n eta_inf plus sublinear overhead."""
    if not 0.0 < eps_ec_com < 1.0:
        raise ValueError("eps_ec_com must lie in (0, 1)")
    return n * eta_inf(model) + _leak_overhead(n, eps_ec_com, optimal_eps_tilde(n, eps_ec_com))


def completeness_ea(n: int, c: float, gamma_a: float, gamma_b: float, omega_exp: float) -> float:
    """Honest abort probability bound 2^(-n D[c || gamma_a gamma_b omega_exp])."""
    mean = gamma_a * gamma_b * omega_exp
    if c > mean:
        raise ValueError(f"threshold c={c} must not exceed the honest mean {mean}")
    if c < 0.0:
        raise ValueError("threshold must be nonnegative")
    d = rel_entropy_binary(c, mean)
    return min(1.0, 2.0 ** (-n * d))


def delta_for_completeness(
    n: int,
    gamma_a: float,
    gamma_b: float,
    omega_exp: float,
    target: float = 1e-2,
) -> float:
    """Acceptance slack delta making the honest abort bound equal the target."""
    if not 0.0 < target < 1.0:
        raise ValueError("target must lie in (0, 1)")
    mean = gamma_a * gamma_b * omega_exp
    lo, hi = 0.0, mean * (1.0 - 1e-15)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if completeness_ea(n, mean - mid, gamma_a, gamma_b, omega_exp) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def vartheta(eps: float) -> float:
    """Smoothing chain-rule cost, used at its bound 1 - 2 log2 eps."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"vartheta needs eps in (0, 1), got {eps}")
    return 1.0 - 2.0 * math.log2(eps)


@dataclass(frozen=True)
class EatResult:
    length: float  # zero-clamped
    raw_length: float
    rate: float
    splits: dict[str, float]  # the optimized split, keyed by _SPLIT_FIELDS
    delta: float
    leak_ec_bits: float
    eta_opt_bits: float
    pt_opt: float


def _ell_for_split(
    params: ProtocolParams,
    eps_ec: float,
    split: tuple[float, float, float, float, float],
    omega_in: float,
    lec: float,
) -> tuple[float, float]:
    """(raw length, eta_opt per round) for a full split, given in _SPLIT_FIELDS order."""
    n = params.n
    eps_pa, eps_s, eps_s_prime, eps_s_dprime, eps_ea = split
    eps_e = eps_ea + eps_ec
    eo = eta_opt(omega_in, eps_s_prime, eps_e, n, params.gamma_a, params.gamma_b)
    eps_rem = eps_s - eps_s_prime - 2.0 * eps_s_dprime
    raw = (
        n * eo
        - lec
        - LEAK_EV_BITS
        - 2.0 * vartheta(eps_rem)
        - params.gamma_a * params.gamma_b * n
        - math.sqrt(n) * math.log2(5.0) * math.sqrt(1.0 - 2.0 * math.log2(eps_s_dprime * eps_e))
        - 2.0 * math.log2(1.0 / eps_pa)
    )
    return raw, eo


def _split_from_fractions(budget: EatBudget, fr: dict[str, float]) -> Optional[tuple[float, float, float, float, float]]:
    """A full split, in _SPLIT_FIELDS order, from fractions (a, b, c, d); None if infeasible.

    a: eps_s share of the soundness room; d: eps_ea share of the rest;
    b: eps_s_prime inside eps_s; c: the 2 eps_s_dprime share of what is left.
    A feasible split has every part positive, eps_s - eps_s_prime -
    2 eps_s_dprime > 0, and eps_ec + eps_pa + eps_s = eps_snd - eps_ea.
    """
    room = budget.eps_snd - budget.eps_ec
    eps_s = fr["a"] * room
    eps_ea = fr["d"] * (room - eps_s)
    eps_pa = room - eps_s - eps_ea
    eps_sp = fr["b"] * eps_s
    eps_spp = fr["c"] * (eps_s - eps_sp) / 2.0
    if min(eps_s, eps_ea, eps_pa, eps_sp, eps_spp) <= 0.0:
        return None
    if eps_s - eps_sp - 2.0 * eps_spp <= 0.0:
        return None
    return eps_pa, eps_s, eps_sp, eps_spp, eps_ea


def key_length_eat(
    params: ProtocolParams,
    budget: EatBudget,
    lec: float,
) -> EatResult:
    """Secret key length certified by entropy accumulation for a tested protocol.

    The certificate is evaluated at the acceptance threshold the run
    tested, omega_exp - delta / gamma_eff (the slack converted to a win
    rate margin by the surviving-round fraction, the certificate's own
    normalization); lec is the reconciliation leakage in bits.  The
    budget split is optimized by deterministic coordinate descent on a
    log grid (_SPLIT_GRID_POINTS per parameter, _SPLIT_PASSES full-span
    passes, then two refinement passes).
    """
    n, delta = params.n, params.delta
    omega_in = params.omega_exp - delta / gamma_eff(params.gamma_a, params.gamma_b)
    pt = _cut_point(omega_in)

    fr = {"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5}
    spans = {k: (1e-6, 1.0 - 1e-6) for k in fr}

    def evaluate(trial: dict[str, float]) -> float:
        split = _split_from_fractions(budget, trial)
        if split is None:
            return -math.inf
        return _ell_for_split(params, budget.eps_ec, split, omega_in, lec)[0]

    best_val = evaluate(fr)
    for sweep in range(_SPLIT_PASSES + 2):
        if sweep >= _SPLIT_PASSES:
            # refinement pass: shrink each span one decade around the best point
            spans = {k: (max(1e-9, fr[k] / 10.0), min(1.0 - 1e-9, fr[k] * 10.0)) for k in fr}
        for key in ("a", "d", "b", "c"):
            lo, hi = spans[key]
            candidates = np.logspace(math.log10(lo), math.log10(hi), _SPLIT_GRID_POINTS)
            for cand in candidates:
                trial = dict(fr)
                trial[key] = float(cand)
                v = evaluate(trial)
                if v > best_val:
                    best_val, fr = v, trial

    split = _split_from_fractions(budget, fr)
    raw, eo = _ell_for_split(params, budget.eps_ec, split, omega_in, lec)
    return EatResult(max(raw, 0.0), raw, raw / n, dict(zip(_SPLIT_FIELDS, split)), delta, lec, eo, pt)


def asymptotic_rate_sifted(s: float, q: float, gamma_a: float, gamma_b: float) -> float:
    """Infinite-block key rate of the sifted protocol, in bits per event."""
    if s < 2.0 or s > TSIRELSON_CHSH + 1e-12:
        raise ValueError(f"need a CHSH value in [2, 2 sqrt 2], got {s}")
    omega = chsh_to_winprob(s)
    return gamma_eff(gamma_a, gamma_b) * g_func(omega) - _eta_inf_raw(q, omega, gamma_a, gamma_b) - gamma_a * gamma_b


def asymptotic_rate_nosift(s: float, q: float) -> float:
    """Infinite-block rate of the sifting-free protocol in the rare-test limit."""
    if s < 2.0 or s > TSIRELSON_CHSH + 1e-12:
        raise ValueError(f"need a CHSH value in [2, 2 sqrt 2], got {s}")
    return g_func(chsh_to_winprob(s)) - binary_entropy(q)
