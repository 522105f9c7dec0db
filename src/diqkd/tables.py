"""Calibration tables: the asymptotic contour, rates per fiber length, p-values and the infidelity budget.

Each builder returns the rows its command (``contour``, ``distance``,
``pvalues``, ``budget``) writes.  This is the only module that reads the
shipped calibration bundle (``data/*.cfg``, in cli's config format); the
error budget is read at the calibrated lengths ``distances.cfg`` lists.
cli imports it only when one of those commands runs, so neither it nor
the bundle costs the pipeline and sweep commands any start-up.
"""

from __future__ import annotations

import math
from importlib import resources
from typing import NamedTuple, Optional

import numpy as np

from . import eat, link
from .cli import RunConfig, _link_models, _stage, parse_flat
from .mathcore import binomial_tail, chsh_to_winprob
from .quantum import fidelity_from_visibilities

__all__ = [
    "DistanceCalibration",
    "load_distance_table",
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


def _read_bundle(name: str) -> dict[str, str]:
    """One shipped data file, parsed."""
    return parse_flat(resources.files("diqkd.data").joinpath(name).read_text(encoding="utf-8"))


def load_distance_table() -> list[DistanceCalibration]:
    """The calibrated rows, shortest first, each field read by name; s_obs, which has a default, only where given."""
    cfg = _read_bundle("distances.cfg")
    rows = []
    for ell in sorted(cfg["distances"].split(","), key=float):
        pre = f"distance.{ell.strip()}."
        row = {"length_km": float(ell)}
        for name in DistanceCalibration._fields[1:]:  # after length_km, the row's own key
            if name not in DistanceCalibration._field_defaults or pre + name in cfg:
                row[name] = (int if name == "n_trials" else float)(cfg[pre + name])
        rows.append(DistanceCalibration(**row))
    return rows


def sweep_asymptotic_contour(s_grid: list[float], q_grid: list[float]) -> tuple[list[dict], list[dict]]:
    """The rows of contour.csv, the sifting-free asymptotic rate over sorted S then Q, and of contour_zero.csv.

    An S whose rate changes sign along Q has a zero row, interpolated linearly at the first change.
    """
    q_sorted = sorted(q_grid)
    grid, zero = [], []
    with _stage("contour grid"):
        for s in sorted(s_grid):
            rates = [eat.asymptotic_rate_nosift(s, q) for q in q_sorted]
            grid += [{"s": s, "q": q, "rate": r} for q, r in zip(q_sorted, rates)]
            sign_change = np.where(np.diff(np.sign(rates)))[0]
            if len(sign_change):
                j = int(sign_change[0])
                q0, q1 = q_sorted[j], q_sorted[j + 1]
                r0, r1 = rates[j], rates[j + 1]
                zero.append({"s": s, "q_zero": q0 + (q1 - q0) * (0.0 - r0) / (r1 - r0)})
    return grid, zero


def sweep_rate_vs_distance(config: RunConfig) -> list[dict]:
    """Per-length link and key-rate summary from the calibration bundle.

    Link components and timing come from the config; each length's row
    supplies its measured fiber transmission and excitation probability.
    sweep.lengths, when set, keeps only those calibrated lengths (RunConfig checks they are).
    """
    defaults, timing = _link_models(config)
    table = [r for r in load_distance_table() if not config.sweep_lengths or r.length_km in config.sweep_lengths]
    rows_out = []
    for row in table:
        budget = {**defaults._asdict(), "length_km": row.length_km, "measured_arm_transmission": row.fiber_transmission}
        eff = link.arm_efficiency(link.LinkBudget(**budget))  # the constructor checks the calibrated fields too
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
    """Infidelity budget, row sum and measured infidelity at each calibrated length (KeyError where one is missing)."""
    cfg = _read_bundle("error_budget.cfg")
    sources = [s.strip() for s in cfg["budget.sources"].split(",")]
    out = []
    for row in load_distance_table():
        budget = {key: float(cfg[f"budget.{row.length_km:g}.{key}"]) for key in [*sources, "total"]}
        measured = 1.0 - row.fidelity
        out.append(
            {
                "length_km": row.length_km,
                **budget,  # each source, then the total
                "row_sum": sum(budget[src] for src in sources),
                "measured_infidelity": measured,
                "within_budget": bool(measured <= budget["total"] + 1e-12),
            }
        )
    return out
