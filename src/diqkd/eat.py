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
  (``EPS_EC + eps_pa + eps_s + eps_ea <= eps_snd``), the conservative
  decomposition of the lineage this analysis follows.  The
  error-correction part EPS_EC is the verification tag's: the
  LEAK_EV_BITS tag collides with probability below it, so it is a
  property of the tag rather than a choice, and both certificates split
  the same eps_snd around it;
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
from typing import NamedTuple

import numpy as np

from .mathcore import TSIRELSON_CHSH, TSIRELSON_WIN, binary_entropy, chsh_to_winprob, rel_entropy_binary
from .protocol import ProtocolParams

__all__ = [
    "LEAK_EV_BITS",
    "EPS_EC",
    "HonestModel",
    "gamma_eff",
    "g_func",
    "g_slope",
    "f_func",
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

LEAK_EV_BITS = 64.0  # verification tag length
EPS_EC = 2.0**-61  # the tag's collision budget: postprocess.tag_collision_bound is about 2^-64 up to 2^61 bits
_PT_EPS = 1e-9  # cut-point inset from the singular interval endpoints
_SPLIT_GRID_POINTS = 16  # log-grid points per budget fraction in the split search
_SPLIT_PASSES = 2  # full-span coordinate-descent passes before the two refinement passes
_SPLIT_FIELDS = ("eps_pa", "eps_s", "eps_s_prime", "eps_s_dprime", "eps_ea")


class _HonestFields(NamedTuple):
    omega: float
    q: float
    gamma_a: float
    gamma_b: float


class HonestModel(_HonestFields):
    """Honest-device operating point: win probability, key error rate, test fractions."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "HonestModel":
        self = super().__new__(cls, *args, **kwargs)
        if not 0.75 < self.omega <= TSIRELSON_WIN + 1e-15:
            raise ValueError(f"omega={self.omega} outside (3/4, (2+sqrt2)/4]")
        if not 0.0 <= self.q <= 0.5:
            raise ValueError(f"q={self.q} outside [0, 1/2]")
        for name in ("gamma_a", "gamma_b"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        return self

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


def _cut_point(omega_in: float) -> float:
    """The maximizing cut point: w_in, kept inside the singular endpoints."""
    lo = max(0.75 + _PT_EPS, omega_in)
    hi = TSIRELSON_WIN - _PT_EPS
    return hi - _PT_EPS if lo >= hi else lo


def _eta_inf_raw(q: float, omega: float, gamma_a: float, gamma_b: float) -> float:
    return (1.0 - gamma_a / 2.0) * (1.0 - gamma_b) * binary_entropy(q) + (
        gamma_a * gamma_b
    ) * binary_entropy(omega)


def eta_inf(model: HonestModel) -> float:
    """Asymptotic reconciliation rate: what an optimal code leaks per round."""
    return _eta_inf_raw(model.q, model.omega, model.gamma_a, model.gamma_b)


def optimal_eps_tilde(n: int, eps_ec_com: float) -> float:
    """1-D log-grid scan for the eps_tilde minimizing the leak overhead; the first minimum wins a tie."""
    grid = (float(et) for et in eps_ec_com * np.logspace(-12.0, -0.05, 200))
    return min(grid, key=lambda et: _leak_overhead(n, eps_ec_com, et))


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


def delta_for_completeness(n: int, gamma_a: float, gamma_b: float, omega_exp: float, target: float) -> float:
    """Acceptance slack delta making the honest abort bound equal the target.

    200 bisection steps, stopped once the midpoint equals an end of the
    bracket: every later step would leave it there, so the result is the
    full run's.  A bracket that does not close in on 0 stops within
    about 67 steps.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target must lie in (0, 1)")
    mean = gamma_a * gamma_b * omega_exp
    lo, hi = 0.0, mean * (1.0 - 1e-15)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
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


class EatResult(NamedTuple):
    length: float  # zero-clamped
    raw_length: float
    rate: float
    splits: dict[str, float]  # the optimized split, keyed by _SPLIT_FIELDS
    pt: float  # the cut point


def _length_of_split(params: ProtocolParams, omega_in: float, lec: float):
    """Raw length as a function of a full split, given in _SPLIT_FIELDS order.

    Per round, gamma_eff f(omega_in, w_t) - (2/sqrt n)(log2 9 + ceil(gamma_eff
    g'(w_t))) sqrt(1 - 2 log2(eps_s_prime eps_e)), clamped at 0, at the cut
    point w_t = _cut_point(omega_in).  The terms no split changes (the
    certificate, the penalty factor before its square root, gamma_a gamma_b
    n and sqrt n log2 5) are computed once, and the arithmetic keeps
    Python's left-to-right order, so each length equals the term-by-term
    formula bit for bit.
    """
    n = params.n
    certifies = omega_in > 0.75  # the clamped per-round entropy is 0 at or below the classical point
    if certifies:
        ge = gamma_eff(params.gamma_a, params.gamma_b)
        pt = _cut_point(omega_in)
        gain = ge * f_func(omega_in, pt)
        pen = (2.0 / math.sqrt(n)) * (math.log2(9.0) + math.ceil(ge * g_slope(pt)))
    test_bits = params.gamma_a * params.gamma_b * n
    sqrt_n_log5 = math.sqrt(n) * math.log2(5.0)

    def raw_length(split: tuple[float, float, float, float, float]) -> float:
        eps_pa, eps_s, eps_s_prime, eps_s_dprime, eps_ea = split
        eps_e = eps_ea + EPS_EC
        eo = max(gain - pen * math.sqrt(1.0 - 2.0 * math.log2(eps_s_prime * eps_e)), 0.0) if certifies else 0.0
        eps_rem = eps_s - eps_s_prime - 2.0 * eps_s_dprime
        return (
            n * eo
            - lec
            - LEAK_EV_BITS
            - 2.0 * vartheta(eps_rem)
            - test_bits
            - sqrt_n_log5 * math.sqrt(1.0 - 2.0 * math.log2(eps_s_dprime * eps_e))
            - 2.0 * math.log2(1.0 / eps_pa)
        )

    return raw_length


def _split_from_fractions(eps_snd: float, fr: dict[str, float]) -> tuple[float, float, float, float, float]:
    """A full split, in _SPLIT_FIELDS order, from fractions (a, b, c, d).

    a: eps_s share of the soundness room; d: eps_ea share of the rest;
    b: eps_s_prime inside eps_s; c: the 2 eps_s_dprime share of what is left.
    The split has every part positive, eps_s - eps_s_prime -
    2 eps_s_dprime > 0, and EPS_EC + eps_pa + eps_s = eps_snd - eps_ea up
    to rounding.
    """
    # No split the search tries is infeasible.  eps_snd lies in (EPS_EC, 1), so room > 0, and key_length_eat's
    # fractions lie in [1e-9, 1 - 1e-9] up to np.logspace's rounding.  A product f x of such a fraction and a
    # positive part is then positive (the least, 2 eps_spp, is about 1e-27 room >= 1e-27 * 2^-113, far above
    # underflow) and rounds strictly below x, since 1 - 1e-9 lies about 2^23 ulps below 1.  So each difference
    # x - fl(f x) is positive: room - eps_s, eps_pa = (room - eps_s) - eps_ea, eps_s - eps_sp, and the remainder
    # eps_s - eps_sp - 2 eps_spp, where 2 eps_spp = fl(c (eps_s - eps_sp)) exactly.
    room = eps_snd - EPS_EC
    eps_s = fr["a"] * room
    eps_ea = fr["d"] * (room - eps_s)
    eps_pa = room - eps_s - eps_ea
    eps_sp = fr["b"] * eps_s
    eps_spp = fr["c"] * (eps_s - eps_sp) / 2.0
    return eps_pa, eps_s, eps_sp, eps_spp, eps_ea


def key_length_eat(params: ProtocolParams, eps_snd: float, lec: float) -> EatResult:
    """Secret key length certified by entropy accumulation for a tested protocol.

    The certificate is evaluated at the acceptance threshold the run
    tested, omega_exp - delta / gamma_eff (the slack converted to a win
    rate margin by the surviving-round fraction, the certificate's own
    normalization); eps_snd is the total soundness, in (EPS_EC, 1), and
    lec the reconciliation leakage in bits.  The split of eps_snd - EPS_EC
    is optimized by deterministic coordinate descent on a log grid
    (_SPLIT_GRID_POINTS per parameter, _SPLIT_PASSES full-span passes,
    then two refinement passes).
    """
    if not EPS_EC < eps_snd < 1.0:
        raise ValueError(f"eps_snd={eps_snd} outside (EPS_EC, 1)")
    n, delta = params.n, params.delta
    omega_in = params.omega_exp - delta / gamma_eff(params.gamma_a, params.gamma_b)
    pt = _cut_point(omega_in)

    raw_length = _length_of_split(params, omega_in, lec)
    fr = {"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5}
    full_span = np.logspace(math.log10(1e-6), math.log10(1.0 - 1e-6), _SPLIT_GRID_POINTS).tolist()

    def evaluate(trial: dict[str, float]) -> float:
        return raw_length(_split_from_fractions(eps_snd, trial))

    best_val = evaluate(fr)
    for sweep in range(_SPLIT_PASSES + 2):
        for key in ("a", "d", "b", "c"):
            if sweep < _SPLIT_PASSES:
                candidates = full_span
            else:
                # refinement pass: shrink the span one decade around the best point
                lo, hi = max(1e-9, fr[key] / 10.0), min(1.0 - 1e-9, fr[key] * 10.0)
                candidates = np.logspace(math.log10(lo), math.log10(hi), _SPLIT_GRID_POINTS).tolist()
            for cand in candidates:
                trial = dict(fr)
                trial[key] = cand
                v = evaluate(trial)
                if v > best_val:
                    best_val, fr = v, trial

    split = _split_from_fractions(eps_snd, fr)
    raw = raw_length(split)
    return EatResult(max(raw, 0.0), raw, raw / n, dict(zip(_SPLIT_FIELDS, split)), pt)


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
