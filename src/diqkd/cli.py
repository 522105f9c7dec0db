"""End-to-end pipeline and sweep drivers with CSV/JSON reporting.

Configuration is the flat ``section.key = value`` format (see
calibration.parse_flat); every value here has a default, so an empty
config runs the 11 km operating point out of the box.  Reports are
canonical: byte-for-byte reproducible from (config, seed), floats at
full round-trip precision, and a config hash in every artifact.

Exit codes: 0 success, 2 protocol abort (with protocol.abort_is_error,
the acceptance test of a key-length method that ran rejected the
simulated transcript: the threshold test for eat, the frequency box for
renyi, either for both), 3 config error, 4 numerical infeasibility.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import calibration, eat, link, protocol, renyi
from .calibration import DistanceCalibration, load_distance_table, load_error_budget
from .eat import EatBudget, HonestModel
from .mathcore import TSIRELSON_WIN, binomial_tail, chsh_to_winprob
from .protocol import build_acceptance_set
from .quantum import NoiseParams, build_heralded_state, fidelity_from_visibilities
from .renyi import RenyiConfig

__all__ = [
    "ConfigError",
    "InfeasibleError",
    "RunConfig",
    "KeyRateReport",
    "run_pipeline",
    "sweep_keyrate_vs_n",
    "sweep_asymptotic_contour",
    "sweep_rate_vs_distance",
    "pvalue_table",
    "error_budget_report",
    "main",
]


class ConfigError(ValueError):
    """Bad or inconsistent run configuration (exit code 3)."""


class InfeasibleError(RuntimeError):
    """The requested evaluation has no feasible answer (exit code 4)."""


def _key(dotted: str, default):
    """A RunConfig field read from the config key ``dotted``."""
    return field(default=default, metadata={"key": dotted})


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; every field has a paper-point default.

    This is the config schema: each field's metadata names its config
    key, and its annotation gives the type the value is parsed as.
    """

    # physical model (11 km calibration)
    v_zz: float = _key("physical.v_zz", 0.943)
    v_xx: float = _key("physical.v_xx", 0.924)
    white_noise: float = _key("physical.white_noise", 0.0)
    readout_flip: float = _key("physical.readout_flip", 0.0)
    delta_phi: float = _key("physical.delta_phi", 0.0)
    sign: int = _key("physical.sign", +1)
    # protocol
    n: int = _key("protocol.n", 1_208_000)
    gamma_a: float = _key("protocol.gamma_a", 0.26)
    gamma_b: float = _key("protocol.gamma_b", 0.13)
    omega_exp: Optional[float] = _key("protocol.omega_exp", None)  # None: honest model win probability
    delta: Optional[float] = _key("protocol.delta", None)  # None: calibrated to the completeness target
    seed: int = _key("seed", 20260808)
    abort_is_error: bool = _key("protocol.abort_is_error", True)
    # security
    eps_snd: float = _key("security.eps_snd", 1e-5)
    eps_ec: float = _key("security.eps_ec", 2.0**-61)
    eps_ec_com: float = _key("security.eps_ec_com", 0.005)
    eps_com_at: float = _key("security.eps_com_at", 0.005)
    eps_ea_com: float = _key("security.eps_ea_com", 1e-2)
    method: str = _key("security.method", "both")  # eat | renyi | both
    renyi_alpha: Optional[float] = _key("security.renyi_alpha", None)
    analytic: bool = _key("security.analytic", False)
    s_obs: Optional[float] = _key("analysis.s_obs", None)  # analytic-mode CHSH value (None: model value)
    q_obs: Optional[float] = _key("analysis.q_obs", None)
    # link (component and timing defaults are those of link.LinkBudget / link.TimingModel)
    length_km: float = _key("link.length_km", 11.0)
    alpha_excitation: float = _key("link.alpha_excitation", 0.022)
    collection: float = _key("link.collection", link.LinkBudget.collection)
    fiber_coupling: float = _key("link.fiber_coupling", link.LinkBudget.fiber_coupling)
    qfc: float = _key("link.qfc", link.LinkBudget.qfc)
    insertion: float = _key("link.insertion", link.LinkBudget.insertion)
    bsm: float = _key("link.bsm", link.LinkBudget.bsm)
    detector: float = _key("link.detector", link.LinkBudget.detector)
    atten_db_per_km: float = _key("link.atten_db_per_km", link.LinkBudget.atten_db_per_km)
    measured_arm_transmission: Optional[float] = _key(
        "link.measured_arm_transmission", link.LinkBudget.measured_arm_transmission
    )
    overhead_s: float = _key("timing.overhead_s", link.TimingModel.overhead_s)
    duty_cycle: float = _key("timing.duty_cycle", link.TimingModel.duty_cycle)
    # sweep grids (comma-separated; used when the flags are absent)
    sweep_n_grid: str = _key("sweep.n_grid", "1e4,3e4,1e5,3e5,1e6,1.208e6,3e6,1e7")
    sweep_s_grid: str = _key("sweep.s_grid", "")
    sweep_q_grid: str = _key("sweep.q_grid", "")
    sweep_lengths: str = _key("sweep.lengths", "")
    # output
    out_dir: str = _key("output.dir", ".")
    # raw echo for hashing
    raw_items: tuple = field(default_factory=tuple, compare=False)

    def __post_init__(self) -> None:
        if self.method not in ("eat", "renyi", "both"):
            raise ConfigError(f"method must be eat, renyi or both, got {self.method!r}")
        if self.n < 1:
            raise ConfigError("protocol.n must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.omega_exp is not None:
            if self.analytic:
                raise ConfigError(
                    "protocol.omega_exp applies to simulated runs only; "
                    "analytic runs and sweep-n test the operating point"
                )
            if not 0.75 < self.omega_exp <= TSIRELSON_WIN:
                raise ConfigError(f"protocol.omega_exp={self.omega_exp} outside (3/4, (2+sqrt2)/4]")

    def config_hash(self) -> str:
        payload = json.dumps(sorted(self.raw_items), separators=(",", ":")).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/0/true/false/yes/no, got {text!r}")


def _converter(tp):
    """Parser for a field annotation: float, int, str, bool or Optional[X]."""
    if typing.get_origin(tp) is typing.Union:
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    return _parse_bool if tp is bool else tp


# config key -> (RunConfig field name, value parser), derived from the fields
_HINTS = typing.get_type_hints(RunConfig)
_KEYS = {f.metadata["key"]: (f.name, _converter(_HINTS[f.name])) for f in fields(RunConfig) if "key" in f.metadata}


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Config file plus command-line overrides, validated into a RunConfig."""
    items: dict[str, str] = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            items = calibration.parse_flat(text)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if overrides:
        items.update({k: str(v) for k, v in overrides.items() if v is not None})
    kwargs = {}
    for key, value in items.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        name, conv = _KEYS[key]
        try:
            kwargs[name] = conv(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    try:
        return RunConfig(raw_items=tuple(sorted(items.items())), **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class KeyRateReport:
    """Everything one pipeline run produced, in canonical serializable form."""

    config_hash: str
    inputs: dict
    s_model: float
    q_model: float
    s_hat: Optional[float]
    s_err: Optional[float]
    q_hat: Optional[float]
    q_err: Optional[float]
    beta_freq: Optional[float]
    accepted: Optional[bool]
    accepted_box: Optional[bool]
    rng_draws: int
    link_summary: dict
    eat_length: Optional[float]
    eat_raw_length: Optional[float]
    eat_rate: Optional[float]
    eat_splits: Optional[dict]
    eat_pt: Optional[float]
    eat_delta: Optional[float]
    renyi_length: Optional[float]
    renyi_raw_length: Optional[float]
    renyi_rate: Optional[float]
    renyi_alpha: Optional[float]
    renyi_h_alpha: Optional[float]
    leak_ec_bits: Optional[float]
    asymptotic_sifted: float
    asymptotic_nosift: float
    wall_time_s: float = 0.0  # informational; excluded from canonical bytes

    def to_json(self) -> str:
        d = asdict(self)
        d.pop("wall_time_s")
        return json.dumps(d, sort_keys=True, indent=1) + "\n"


def _model_behavior(config: RunConfig):
    noise = NoiseParams.from_visibilities(
        config.v_zz,
        config.v_xx,
        white_noise=config.white_noise,
        readout_flip=config.readout_flip,
        delta_phi=config.delta_phi,
        sign=config.sign,
    )
    state = build_heralded_state(noise)
    return protocol.behavior_from_state(state, readout_flip=config.readout_flip)


def _link_models(config: RunConfig) -> tuple[link.LinkBudget, link.TimingModel]:
    """The arm link budget and trial timing that a run configures."""
    try:
        budget = link.LinkBudget(
            collection=config.collection,
            fiber_coupling=config.fiber_coupling,
            qfc=config.qfc,
            insertion=config.insertion,
            bsm=config.bsm,
            detector=config.detector,
            atten_db_per_km=config.atten_db_per_km,
            length_km=config.length_km,
            measured_arm_transmission=config.measured_arm_transmission,
        )
        timing = link.TimingModel(overhead_s=config.overhead_s, duty_cycle=config.duty_cycle)
    except ValueError as exc:
        raise ConfigError(f"link budget: {exc}") from exc
    return budget, timing


def run_pipeline(config: RunConfig) -> KeyRateReport:
    """Model -> (transcript) -> estimates -> acceptance -> key lengths.

    The protocol and its acceptance test are fixed once as a
    ProtocolParams: omega_exp is the stated operating point in analytic
    mode and protocol.omega_exp (or the model's win probability) in a
    simulated run; delta is protocol.delta or the slack meeting
    eps_ea_com; the count box is built around the same omega_exp.
    ``protocol.accept`` tests the transcript's counts against this
    threshold and box in integers, and both key lengths are certified
    for them.
    """
    t0 = time.perf_counter()
    try:
        behavior = _model_behavior(config)
    except ValueError as exc:
        raise ConfigError(f"physical model: {exc}") from exc
    s_model = behavior.chsh_value()
    q_model = behavior.key_qber()
    omega_exp = config.omega_exp if config.omega_exp is not None else behavior.chsh_win_probability()
    s_eval = config.s_obs if config.s_obs is not None else s_model
    q_eval = config.q_obs if config.q_obs is not None else q_model
    try:
        model = HonestModel.from_chsh(s_eval, q_eval, config.gamma_a, config.gamma_b)
    except ValueError as exc:
        raise ConfigError(f"operating point: {exc}") from exc

    omega_test = model.omega if config.analytic else omega_exp
    try:
        delta = config.delta
        if delta is None:
            delta = eat.delta_for_completeness(
                config.n, config.gamma_a, config.gamma_b, omega_test, target=config.eps_ea_com
            )
        box_lo, box_hi = build_acceptance_set(config.n, config.gamma_a, config.gamma_b, omega_test, config.eps_com_at)
        params = protocol.ProtocolParams(
            n=config.n,
            gamma_a=config.gamma_a,
            gamma_b=config.gamma_b,
            omega_exp=omega_test,
            delta=delta,
            box_lo=box_lo,
            box_hi=box_hi,
            seed=config.seed,
        )
    except ValueError as exc:
        raise ConfigError(f"acceptance test: {exc}") from exc
    try:
        eat_budget = EatBudget(eps_snd=config.eps_snd, eps_ec=config.eps_ec)
        renyi_config = RenyiConfig(alpha=config.renyi_alpha, eps_sec=config.eps_snd - config.eps_ec)
        lec = eat.leak_ec(config.n, model, config.eps_ec_com)
    except ValueError as exc:
        raise ConfigError(f"security: {exc}") from exc

    if config.analytic:
        s_hat = s_err = q_hat = q_err = beta = None
        accepted = accepted_box = None
        draws = 0
    else:
        from . import rng as _rng

        before = _rng.audit_total()
        tr = protocol.generate_transcript(behavior, params)
        draws = _rng.audit_total() - before
        beta = protocol.test_statistic(tr)
        est = protocol.estimate(tr)
        s_hat, s_err, q_hat, q_err = est.s_hat, est.s_err, est.q_hat, est.q_err
        accepted, accepted_box = protocol.accept(est.counts, params)

    budget_l, timing = _link_models(config)
    eff = link.arm_efficiency(budget_l)
    p_s = link.success_probability_spi(config.alpha_excitation, eff, config.alpha_excitation, eff)
    link_summary = {
        "length_km": config.length_km,
        "arm_efficiency": eff,
        "p_spi": p_s,
        "events_per_s": link.event_rate(p_s, timing, config.length_km),
    }

    eat_res = renyi_res = None
    if config.method in ("eat", "both"):
        try:
            eat_res = eat.key_length_eat(params, eat_budget, lec)
        except ValueError as exc:
            raise InfeasibleError(str(exc)) from exc
    if config.method in ("renyi", "both"):
        try:
            renyi_res = renyi.key_length_renyi(params, renyi_config, lec)
        except ValueError as exc:
            raise InfeasibleError(str(exc)) from exc

    report = KeyRateReport(
        config_hash=config.config_hash(),
        inputs={
            "n": config.n,
            "gamma_a": config.gamma_a,
            "gamma_b": config.gamma_b,
            "omega_exp": params.omega_exp,
            "eps_snd": config.eps_snd,
            "method": config.method,
            "analytic": config.analytic,
            "seed": config.seed,
            "s_eval": s_eval,
            "q_eval": q_eval,
        },
        s_model=s_model,
        q_model=q_model,
        s_hat=s_hat,
        s_err=s_err,
        q_hat=q_hat,
        q_err=q_err,
        beta_freq=beta,
        accepted=accepted,
        accepted_box=accepted_box,
        rng_draws=draws,
        link_summary=link_summary,
        eat_length=None if eat_res is None else eat_res.length,
        eat_raw_length=None if eat_res is None else eat_res.raw_length,
        eat_rate=None if eat_res is None else eat_res.rate,
        eat_splits=None if eat_res is None else eat_res.splits,
        eat_pt=None if eat_res is None else eat_res.pt_opt,
        eat_delta=None if eat_res is None else eat_res.delta,
        renyi_length=None if renyi_res is None else renyi_res.length,
        renyi_raw_length=None if renyi_res is None else renyi_res.raw_length,
        renyi_rate=None if renyi_res is None else renyi_res.rate,
        renyi_alpha=None if renyi_res is None else renyi_res.alpha,
        renyi_h_alpha=None if renyi_res is None else renyi_res.h_alpha_bits,
        leak_ec_bits=lec,
        asymptotic_sifted=eat.asymptotic_rate_sifted(s_eval, q_eval, config.gamma_a, config.gamma_b),
        asymptotic_nosift=eat.asymptotic_rate_nosift(s_eval, q_eval),
        wall_time_s=time.perf_counter() - t0,
    )
    return report


def sweep_keyrate_vs_n(config: RunConfig, n_grid: list[int]) -> list[dict]:
    """Finite-size rates vs block size, plus the sifted asymptote.

    Each point is the analytic pipeline at that n, so it honours the
    security keys and protocol.delta; a method that did not run gives None.
    """
    configs = [replace(config, n=int(n), analytic=True) for n in sorted(n_grid)]
    reports = [run_pipeline(c) for c in configs]
    return [
        {
            "n": c.n,
            "rate_eat": None if r.eat_length is None else r.eat_length / c.n,
            "rate_renyi": None if r.renyi_length is None else r.renyi_length / c.n,
            "rate_asym": r.asymptotic_sifted,
        }
        for c, r in zip(configs, reports)
    ]


def sweep_asymptotic_contour(s_grid: list[float], q_grid: list[float]) -> dict:
    """Sifting-free asymptotic rate on an (S, Q) grid, with the zero contour."""
    rates = np.empty((len(s_grid), len(q_grid)))
    try:
        for i, s in enumerate(sorted(s_grid)):
            for j, q in enumerate(sorted(q_grid)):
                rates[i, j] = eat.asymptotic_rate_nosift(s, q)
    except ValueError as exc:
        raise ConfigError(f"contour grid: {exc}") from exc
    zero = []
    s_sorted, q_sorted = sorted(s_grid), sorted(q_grid)
    for i, s in enumerate(s_sorted):
        row = rates[i]
        sign_change = np.where(np.diff(np.sign(row)))[0]
        if len(sign_change):
            j = int(sign_change[0])
            q0, q1 = q_sorted[j], q_sorted[j + 1]
            r0, r1 = row[j], row[j + 1]
            zero.append({"s": s, "q_zero": q0 + (q1 - q0) * (0.0 - r0) / (r1 - r0)})
    return {"s_grid": s_sorted, "q_grid": q_sorted, "rates": rates.tolist(), "zero_contour": zero}


def sweep_rate_vs_distance(config: RunConfig, table: Optional[list[DistanceCalibration]] = None) -> list[dict]:
    """Per-length link and key-rate summary from the calibration bundle.

    Link components and timing come from the config; each length's row
    supplies its measured fiber transmission and excitation probability.
    """
    defaults, timing = _link_models(config)
    rows_out = []
    for row in sorted(table or load_distance_table(), key=lambda r: r.length_km):
        eff = link.arm_efficiency(row.link_budget(defaults))
        a = row.alpha_excitation
        p_spi = link.success_probability_spi(a, eff, a, eff)
        p_tpi = link.success_probability_tpi(eff, eff)
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


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(rows: list[dict], path: Path, config_hash: str) -> None:
    if not rows:
        raise InfeasibleError("nothing to write")
    cols = list(rows[0].keys())
    lines = [f"# config_hash = {config_hash}", ",".join(cols)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in cols))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_grid(text: str, name: str) -> list[float]:
    """One or more comma-separated finite numbers; anything else is a config error."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    if not values or not all(map(math.isfinite, values)):
        raise ConfigError(f"{name}: need one or more finite numbers, got {text!r}")
    return values


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="diqkd", description="Heralded-link CHSH key-rate toolkit")
    parser.add_argument("--config", default=None, help="flat key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="64-bit master seed override")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--analytic", action="store_true", help="skip simulation; evaluate stated (S, Q)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("pipeline", help="single end-to-end run")
    p_n = sub.add_parser("sweep-n", help="key rate vs block size")
    p_n.add_argument("--n-grid", default=None)
    p_c = sub.add_parser("contour", help="asymptotic rate over (S, Q)")
    p_c.add_argument("--s-grid", default=None)
    p_c.add_argument("--q-grid", default=None)
    sub.add_parser("distance", help="link and rate summary per fiber length")
    sub.add_parser("pvalues", help="binomial-test table per fiber length")
    sub.add_parser("budget", help="infidelity budget consistency report")

    args = parser.parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output.dir"] = args.out
    if args.analytic:
        overrides["security.analytic"] = "true"

    try:
        config = load_config(args.config, overrides)
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        h = config.config_hash()

        if args.command == "pipeline":
            report = run_pipeline(config)
            path = out_dir / "report.json"
            path.write_text(report.to_json(), encoding="utf-8")
            print(f"wrote {path} (wall time {report.wall_time_s:.2f}s)", file=sys.stderr)
            print(report.to_json(), end="")
            gates = {
                "eat": [report.accepted],
                "renyi": [report.accepted_box],
                "both": [report.accepted, report.accepted_box],
            }
            if config.abort_is_error and False in gates[config.method]:
                return 2
            return 0

        if args.command == "sweep-n":
            grid = args.n_grid if args.n_grid is not None else config.sweep_n_grid
            n_grid = _parse_grid(grid, "n grid")
            if not all(n.is_integer() for n in n_grid):
                raise ConfigError(f"n grid: block sizes must be integers, got {grid!r}")
            rows = sweep_keyrate_vs_n(config, [int(n) for n in n_grid])
            write_csv(rows, out_dir / "keyrate_vs_n.csv", h)
        elif args.command == "contour":
            s_grid = args.s_grid if args.s_grid is not None else (
                config.sweep_s_grid or ",".join(str(s) for s in np.linspace(2.0, 2.828, 25).round(4))
            )
            q_grid = args.q_grid if args.q_grid is not None else (
                config.sweep_q_grid or ",".join(str(q) for q in np.linspace(0.0, 0.12, 25).round(4))
            )
            res = sweep_asymptotic_contour(_parse_grid(s_grid, "s grid"), _parse_grid(q_grid, "q grid"))
            grid_rows = [
                {"s": s, "q": q, "rate": res["rates"][i][j]}
                for i, s in enumerate(res["s_grid"])
                for j, q in enumerate(res["q_grid"])
            ]
            write_csv(grid_rows, out_dir / "contour.csv", h)
            if res["zero_contour"]:
                write_csv(res["zero_contour"], out_dir / "contour_zero.csv", h)
        elif args.command == "distance":
            rows = sweep_rate_vs_distance(config)
            if config.sweep_lengths:
                keep = set(_parse_grid(config.sweep_lengths, "sweep.lengths"))
                unknown = keep.difference(r["length_km"] for r in rows)
                if unknown:
                    raise ConfigError(f"sweep.lengths: {sorted(unknown)} are not calibrated lengths")
                rows = [r for r in rows if r["length_km"] in keep]
            write_csv(rows, out_dir / "distance.csv", h)
        elif args.command == "pvalues":
            write_csv(pvalue_table(), out_dir / "pvalues.csv", h)
        elif args.command == "budget":
            write_csv(error_budget_report(), out_dir / "budget.csv", h)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
