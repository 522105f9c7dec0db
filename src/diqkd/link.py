"""Photonic link budget, heralding success probabilities, and event rates.

The arm efficiency multiplies the component chain with the fiber
transmission over half the total length (each node sits L/2 from the
midpoint station).  A measured per-length arm transmission, when
supplied, overrides the analytic fiber term: measurement beats model.

The trial latency is 3L/2c in vacuum-light time: photon flight to the
midpoint plus the classical herald back to the nodes.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

__all__ = [
    "SPEED_OF_LIGHT",
    "LinkBudget",
    "TimingModel",
    "arm_efficiency",
    "success_probability_spi",
    "success_probability_tpi",
    "event_rate",
]

SPEED_OF_LIGHT = 299_792_458.0  # vacuum, m/s


class _LinkBudgetFields(NamedTuple):
    collection: float = 0.085
    fiber_coupling: float = 0.50
    qfc: float = 0.47
    insertion: float = 0.86
    bsm: float = 0.765
    detector: float = 0.85
    atten_db_per_km: float = 0.32
    length_km: float = 0.0
    measured_arm_transmission: Optional[float] = None


class LinkBudget(_LinkBudgetFields):
    """Component efficiencies plus fiber attenuation for one arm of the link.

    The defaults are the midpoint-station heralding link's one-arm
    components and the 1315 nm telecom-band fiber attenuation.  The
    checks run in __new__, as in every validated record of the package;
    ``_replace`` skips them, so a changed budget is built by the
    constructor.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "LinkBudget":
        self = super().__new__(cls, *args, **kwargs)
        for name in ("collection", "fiber_coupling", "qfc", "insertion", "bsm", "detector"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if self.atten_db_per_km < 0:
            raise ValueError("attenuation must be nonnegative")
        if self.length_km < 0:
            raise ValueError("length must be nonnegative")
        if self.measured_arm_transmission is not None and not 0.0 <= self.measured_arm_transmission <= 1.0:
            raise ValueError("measured_arm_transmission outside [0, 1]")
        return self


class _TimingFields(NamedTuple):
    overhead_s: float = 12e-6
    duty_cycle: float = 0.15


class TimingModel(_TimingFields):
    """Per-trial timing: fixed overhead and duty cycle.

    The trial period is the overhead plus the 3L/2c herald round trip.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "TimingModel":
        self = super().__new__(cls, *args, **kwargs)
        if self.overhead_s <= 0:
            raise ValueError("overhead must be positive")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError("duty cycle must lie in (0, 1]")
        return self


def arm_efficiency(budget: LinkBudget) -> float:
    """Total one-arm efficiency: component product times fiber transmission."""
    comp = (
        budget.collection
        * budget.fiber_coupling
        * budget.qfc
        * budget.insertion
        * budget.bsm
        * budget.detector
    )
    if budget.measured_arm_transmission is not None:
        fiber = budget.measured_arm_transmission
    else:
        fiber = 10.0 ** (-budget.atten_db_per_km * (budget.length_km / 2.0) / 10.0)
    return comp * fiber


def success_probability_spi(alpha: float, eta: float) -> float:
    """Single-photon heralding success probability alpha eta + alpha eta, for two equal arms."""
    for name, v in (("alpha", alpha), ("eta", eta)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name}={v} outside [0, 1]")
    p = alpha * eta + alpha * eta
    if p > 1.0:
        raise ValueError(f"success probability {p} exceeds 1; inputs are inconsistent")
    return p


def success_probability_tpi(eta: float) -> float:
    """Two-photon heralding success probability 0.5 eta eta, for two equal arms."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("efficiency must lie in [0, 1]")
    return 0.5 * eta * eta


def event_rate(p_s: float, timing: TimingModel, length_km: float) -> float:
    """Heralded events per second: p_s times the latency-limited repetition rate."""
    if p_s < 0:
        raise ValueError("success probability must be nonnegative")
    latency = 1.5 * (length_km * 1000.0) / SPEED_OF_LIGHT
    return p_s * timing.duty_cycle / (timing.overhead_s + latency)
