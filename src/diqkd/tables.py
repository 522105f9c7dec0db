"""Calibration tables: the asymptotic contour, rates per fiber length, p-values and the infidelity budget.

The ``contour``, ``distance``, ``pvalues`` and ``budget`` commands build
their rows here, and this is the only module that reads the shipped
calibration bundle (``data/*.cfg``, in cli's config format).  cli
imports it only when one of those commands runs, so neither it nor the
bundle costs the pipeline and sweep commands any start-up.
"""

from __future__ import annotations

import math
from importlib import resources
from typing import NamedTuple, Optional

import numpy as np

from . import eat, link
from .cli import ConfigError, RunConfig, _link_models, parse_flat
from .mathcore import binomial_tail, chsh_to_winprob
from .quantum import fidelity_from_visibilities

__all__ = [
    "DistanceCalibration",
    "load_distance_table",
    "load_error_budget",
    "sweep_asymptotic_contour",
    "sweep_rate_vs_distance",
    "pvalue_table",
    "error_budget_report",
]


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

    def link_budget(self, defaults: link.LinkBudget) -> link.LinkBudget:
        """The given budget at this length, with the measured fiber transmission override (checked again)."""
        return link.LinkBudget(
            **{**defaults._asdict(), "length_km": self.length_km, "measured_arm_transmission": self.fiber_transmission}
        )


def _read_bundle(name: str) -> dict[str, str]:
    """One shipped data file, parsed."""
    return parse_flat(resources.files("diqkd.data").joinpath(name).read_text(encoding="utf-8"))


def load_distance_table() -> list[DistanceCalibration]:
    """The calibrated rows in file order, each field read by name; s_obs, which has a default, only where given."""
    cfg = _read_bundle("distances.cfg")
    rows = []
    for ell in cfg["distances"].split(","):
        pre = f"distance.{ell.strip()}."
        row = {"length_km": float(ell)}
        for name in DistanceCalibration._fields[1:]:  # after length_km, the row's own key
            if name not in DistanceCalibration._field_defaults or pre + name in cfg:
                row[name] = (int if name == "n_trials" else float)(cfg[pre + name])
        rows.append(DistanceCalibration(**row))
    return rows


def load_error_budget() -> tuple[list[str], dict[float, dict[str, float]]]:
    """Infidelity budget rows: (source names, {length: {source: value, 'total': t}})."""
    cfg = _read_bundle("error_budget.cfg")
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


def sweep_asymptotic_contour(s_grid: list[float], q_grid: list[float]) -> dict:
    """Sifting-free asymptotic rate on an (S, Q) grid, with the zero contour."""
    s_sorted, q_sorted = sorted(s_grid), sorted(q_grid)
    rates = np.empty((len(s_sorted), len(q_sorted)))
    try:
        for i, s in enumerate(s_sorted):
            for j, q in enumerate(q_sorted):
                rates[i, j] = eat.asymptotic_rate_nosift(s, q)
    except ValueError as exc:
        raise ConfigError(f"contour grid: {exc}") from exc
    zero = []
    for i, s in enumerate(s_sorted):
        row = rates[i]
        sign_change = np.where(np.diff(np.sign(row)))[0]
        if len(sign_change):
            j = int(sign_change[0])
            q0, q1 = q_sorted[j], q_sorted[j + 1]
            r0, r1 = row[j], row[j + 1]
            zero.append({"s": s, "q_zero": q0 + (q1 - q0) * (0.0 - r0) / (r1 - r0)})
    return {"s_grid": s_sorted, "q_grid": q_sorted, "rates": rates.tolist(), "zero_contour": zero}


def sweep_rate_vs_distance(config: RunConfig) -> list[dict]:
    """Per-length link and key-rate summary from the calibration bundle.

    Link components and timing come from the config; each length's row
    supplies its measured fiber transmission and excitation probability.
    sweep.lengths, when set, keeps only those calibrated lengths.
    """
    defaults, timing = _link_models(config)
    table = load_distance_table()
    if config.sweep_lengths:
        keep = set(config.sweep_lengths)
        unknown = keep.difference(r.length_km for r in table)
        if unknown:
            raise ConfigError(f"sweep.lengths: {sorted(unknown)} are not calibrated lengths")
        table = [r for r in table if r.length_km in keep]
    rows_out = []
    for row in sorted(table, key=lambda r: r.length_km):
        eff = link.arm_efficiency(row.link_budget(defaults))
        p_spi = link.success_probability_spi(row.alpha_excitation, eff)
        p_tpi = link.success_probability_tpi(eff)
        rate_s = link.event_rate(p_spi, timing, row.length_km)
        rate_tpi = link.event_rate(p_tpi, timing, row.length_km)
        s_model = math.sqrt(2.0) * (row.v_zz + row.v_xx)
        per_event = eat.asymptotic_rate_nosift(s_model, row.qber)
        rows_out.append(
            {
                "length_km": row.length_km,
                "arm_efficiency": eff,
                "p_spi": p_spi,
                "p_tpi": p_tpi,
                "events_per_s": rate_s,
                "events_per_s_tpi": rate_tpi,
                "s_model": s_model,
                "qber": row.qber,
                "fidelity_model": fidelity_from_visibilities(row.v_zz, row.v_xx),
                "fidelity_target": row.fidelity,
                "rate_per_event": per_event,
                "rate_per_s": per_event * rate_s,
            }
        )
    return rows_out


def pvalue_table(rows: Optional[list[tuple[float, int, float]]] = None) -> list[dict]:
    """Game-level significance: exact binomial tail at the classical bound.

    rows are (length_km, n_trials, s_obs); the win count is reconstructed
    as round(n * winprob(s_obs)).  Defaults to the shipped calibration
    (back-solved scores, see the data file).
    """
    if rows is None:
        rows = [(r.length_km, r.n_trials, r.s_pvalue) for r in load_distance_table()]
    out = []
    for length, n, s_obs in rows:
        omega = chsh_to_winprob(s_obs)
        k = int(round(n * omega))
        log10_p = binomial_tail(n, k, 0.75) * math.log10(2.0)
        out.append({"length_km": length, "n_trials": n, "s_obs": s_obs, "k": k, "log10_p": log10_p})
    return out


def error_budget_report() -> list[dict]:
    """Row sums of the infidelity budget vs the measured infidelity."""
    sources, table = load_error_budget()
    fidelity = {r.length_km: r.fidelity for r in load_distance_table()}
    out = []
    for length, row in sorted(table.items()):
        total = row["total"]
        ssum = sum(row[s] for s in sources)
        measured = 1.0 - fidelity[length]
        out.append(
            {
                "length_km": length,
                **{s: row[s] for s in sources},
                "total": total,
                "row_sum": ssum,
                "measured_infidelity": measured,
                "within_budget": bool(measured <= total + 1e-12),
            }
        )
    return out
