"""Shipped calibration bundles and the flat key = value config format.

The config format is line oriented: ``dotted.key = value`` with ``#``
comments, chosen to be diff-friendly and language agnostic.  The same
parser backs both the shipped data files and user-facing run configs.
"""

from __future__ import annotations

from importlib import resources
from typing import NamedTuple, Optional

from .link import LinkBudget

__all__ = [
    "parse_flat",
    "load_data_text",
    "DistanceCalibration",
    "load_distance_table",
    "load_error_budget",
]


def parse_flat(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines into a dict; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def load_data_text(name: str) -> str:
    return resources.files("diqkd.data").joinpath(name).read_text(encoding="utf-8")


class DistanceCalibration(NamedTuple):
    """One row of the per-distance calibration bundle.

    Fields tagged reconstructed in the data file are derived values (see
    the file header for the derivations); the rest are measured anchors.
    """

    length_km: float
    fiber_transmission: float
    total_arm_eff: float
    fidelity: float
    qber: float
    v_zz: float
    v_xx: float
    s_pvalue: float
    n_trials: int
    pvalue_log10: float
    alpha_excitation: float
    s_obs: Optional[float] = None  # directly measured CHSH value, where available

    def link_budget(self, defaults: LinkBudget) -> LinkBudget:
        """The given budget at this length, with the measured fiber transmission override (checked again)."""
        return LinkBudget(
            **{**defaults._asdict(), "length_km": self.length_km, "measured_arm_transmission": self.fiber_transmission}
        )


def load_distance_table() -> list[DistanceCalibration]:
    cfg = parse_flat(load_data_text("distances.cfg"))
    lengths = [s.strip() for s in cfg["distances"].split(",")]
    rows = []
    for ell in lengths:
        pre = f"distance.{ell}."
        rows.append(
            DistanceCalibration(
                length_km=float(ell),
                fiber_transmission=float(cfg[pre + "fiber_transmission"]),
                total_arm_eff=float(cfg[pre + "total_arm_eff"]),
                fidelity=float(cfg[pre + "fidelity"]),
                qber=float(cfg[pre + "qber"]),
                v_zz=float(cfg[pre + "v_zz"]),
                v_xx=float(cfg[pre + "v_xx"]),
                s_pvalue=float(cfg[pre + "s_pvalue"]),
                n_trials=int(cfg[pre + "n_trials"]),
                pvalue_log10=float(cfg[pre + "pvalue_log10"]),
                alpha_excitation=float(cfg[pre + "alpha_excitation"]),
                s_obs=float(cfg[pre + "s_obs"]) if pre + "s_obs" in cfg else None,
            )
        )
    return rows


def load_error_budget() -> tuple[list[str], dict[float, dict[str, float]]]:
    """Infidelity budget rows: (source names, {length: {source: value, 'total': t}})."""
    cfg = parse_flat(load_data_text("error_budget.cfg"))
    sources = [s.strip() for s in cfg["budget.sources"].split(",")]
    table: dict[float, dict[str, float]] = {}
    lengths = sorted(
        {float(k.split(".")[1]) for k in cfg if k.startswith("budget.") and k.split(".")[1].isdigit()}
    )
    for ell in lengths:
        pre = f"budget.{ell:g}."
        row = {src: float(cfg[pre + src]) for src in sources}
        row["total"] = float(cfg[pre + "total"])
        table[ell] = row
    return sources, table
