"""End-to-end pipeline and sweep drivers with CSV/JSON reporting.

Configuration is the flat ``section.key = value`` format (see
parse_flat); every value here has a default, so an empty
config runs the 11 km operating point out of the box.  Reports are
canonical: byte-for-byte reproducible from (config, seed), floats at
full round-trip precision, and a config hash in every artifact.  The
commands that print calibration tables build them in ``tables``, which
is imported only when one of them runs.

Exit codes: 0 success, 2 protocol abort (with protocol.abort_is_error,
the acceptance test of a key-length method that ran rejected the
simulated transcript: the threshold test for eat, the frequency box for
renyi, either for both), 3 config error, 4 numerical infeasibility.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import eat, link, protocol, renyi, rng
from .eat import HonestModel
from .mathcore import TSIRELSON_CHSH, TSIRELSON_WIN
from .protocol import build_acceptance_set
from .quantum import NoiseParams, build_heralded_state

__all__ = [
    "ConfigError",
    "InfeasibleError",
    "RunConfig",
    "parse_flat",
    "KeyRateReport",
    "run_pipeline",
    "sweep_keyrate_vs_n",
    "main",
]


class ConfigError(ValueError):
    """Bad or inconsistent run configuration (exit code 3)."""


class InfeasibleError(RuntimeError):
    """The requested evaluation has no feasible answer (exit code 4)."""


class _stage:
    """A stage's ValueError becomes error, its message after ``label: ``; a ConfigError passes through as raised."""

    __slots__ = ("label", "error")

    def __init__(self, label: str = "", error: type = ConfigError):
        self.label, self.error = label, error

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None and issubclass(kind, ValueError) and not issubclass(kind, ConfigError):
            raise self.error(f"{self.label}: {exc}" if self.label else str(exc)) from exc


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/0/true/false/yes/no, got {text!r}")


def _float_grid(text: str) -> tuple[float, ...]:
    """One or more comma-separated finite numbers."""
    values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not values or not all(map(math.isfinite, values)):
        raise ValueError(f"need one or more finite numbers, got {text!r}")
    return values


def _int_grid(text: str) -> tuple[int, ...]:
    """One or more comma-separated whole numbers, in any float notation such as 1e5."""
    values = _float_grid(text)
    if not all(v.is_integer() for v in values):
        raise ValueError(f"need whole numbers, got {text!r}")
    return tuple(map(int, values))


_LINK, _TIMING = link.LinkBudget(), link.TimingModel()

# The config schema, its one source of truth: (config key, RunConfig field, value parser, default).
_SCHEMA = (
    # physical model (11 km calibration)
    ("physical.v_zz", "v_zz", float, 0.943),
    ("physical.v_xx", "v_xx", float, 0.924),
    ("physical.white_noise", "white_noise", float, 0.0),
    ("physical.readout_flip", "readout_flip", float, 0.0),
    ("physical.delta_phi", "delta_phi", float, 0.0),
    # protocol
    ("protocol.n", "n", int, 1_208_000),
    ("protocol.gamma_a", "gamma_a", float, 0.26),
    ("protocol.gamma_b", "gamma_b", float, 0.13),
    ("protocol.omega_exp", "omega_exp", float, None),  # None: honest model win probability
    ("protocol.delta", "delta", float, None),  # None: calibrated to the completeness target
    ("seed", "seed", int, 20260808),
    ("protocol.abort_is_error", "abort_is_error", _parse_bool, True),
    # security
    ("security.eps_snd", "eps_snd", float, 1e-5),  # the tag's share is the constant eat.EPS_EC
    ("security.eps_ec_com", "eps_ec_com", float, 0.005),
    ("security.eps_com_at", "eps_com_at", float, 0.005),
    ("security.eps_ea_com", "eps_ea_com", float, 1e-2),
    ("security.method", "method", str, "both"),  # eat | renyi | both
    ("security.renyi_alpha", "renyi_alpha", float, None),  # None: optimized
    ("security.analytic", "analytic", _parse_bool, False),
    ("analysis.s_obs", "s_obs", float, None),  # analytic-mode CHSH value (None: model value)
    ("analysis.q_obs", "q_obs", float, None),
    # link (component and timing defaults are those of link.LinkBudget / link.TimingModel)
    ("link.length_km", "length_km", float, 11.0),
    ("link.alpha_excitation", "alpha_excitation", float, 0.022),
    ("link.collection", "collection", float, _LINK.collection),
    ("link.fiber_coupling", "fiber_coupling", float, _LINK.fiber_coupling),
    ("link.qfc", "qfc", float, _LINK.qfc),
    ("link.insertion", "insertion", float, _LINK.insertion),
    ("link.bsm", "bsm", float, _LINK.bsm),
    ("link.detector", "detector", float, _LINK.detector),
    ("link.atten_db_per_km", "atten_db_per_km", float, _LINK.atten_db_per_km),
    ("link.measured_arm_transmission", "measured_arm_transmission", float, _LINK.measured_arm_transmission),
    ("timing.overhead_s", "overhead_s", float, _TIMING.overhead_s),
    ("timing.duty_cycle", "duty_cycle", float, _TIMING.duty_cycle),
    # sweep grids, comma-separated numbers (the --n-grid, --s-grid and --q-grid flags set them)
    ("sweep.n_grid", "sweep_n_grid", _int_grid, (10**4, 3 * 10**4, 10**5, 3 * 10**5, 10**6, 1_208_000, 3 * 10**6, 10**7)),
    ("sweep.s_grid", "sweep_s_grid", _float_grid, tuple(np.linspace(2.0, 2.828, 25).round(4).tolist())),
    ("sweep.q_grid", "sweep_q_grid", _float_grid, tuple(np.linspace(0.0, 0.12, 25).round(4).tolist())),
    ("sweep.lengths", "sweep_lengths", _float_grid, ()),  # (): every calibrated length
    # output
    ("output.dir", "out_dir", str, "."),
)
# config key -> (RunConfig field, value parser)
_KEYS = {key: (name, parse) for key, name, parse, _ in _SCHEMA}
_RunConfigFields = collections.namedtuple("_RunConfigFields", [r[1] for r in _SCHEMA], defaults=[r[3] for r in _SCHEMA])


class RunConfig(_RunConfigFields):
    """Validated run parameters; every field has a paper-point default.

    The fields, their config keys, parsers and defaults are _SCHEMA's.
    The checks run in __new__, so the constructor and replace() make
    them; namedtuple's _replace skips them.  The instance dict holds only
    the memoised config hash: no attribute can be set.
    """

    def __new__(cls, *args, **kwargs) -> "RunConfig":
        self = super().__new__(cls, *args, **kwargs)
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
        # the model's and the link's own range checks, in their words and under the pipeline's stage labels,
        # so every command rejects a value that only some read
        with _stage("physical model"):
            NoiseParams.from_visibilities(self.v_zz, self.v_xx, white_noise=self.white_noise, delta_phi=self.delta_phi)
        if not 0.0 <= self.readout_flip <= 1.0:
            raise ConfigError(f"physical model: readout_flip={self.readout_flip} outside [0, 1]")
        _link_summary(self)
        # the certificates' own range checks, made before any of them runs
        if not eat.EPS_EC < self.eps_snd < 1.0:
            raise ConfigError(f"security.eps_snd={self.eps_snd} outside (EPS_EC = 2^-61, 1)")
        if self.renyi_alpha is not None and not 1.0 < self.renyi_alpha <= 2.0:
            raise ConfigError(f"security.renyi_alpha={self.renyi_alpha} outside (1, 2]")
        # the sweeps' range checks, so every command rejects a grid that only one reads
        if not all(n >= 1 for n in self.sweep_n_grid):
            raise ConfigError(f"sweep.n_grid: block sizes must be >= 1, got {self.sweep_n_grid}")
        if not all(2.0 <= s <= TSIRELSON_CHSH + 1e-12 for s in self.sweep_s_grid):
            raise ConfigError(f"sweep.s_grid: need CHSH values in [2, 2 sqrt 2], got {self.sweep_s_grid}")
        if not all(0.0 <= q <= 1.0 for q in self.sweep_q_grid):
            raise ConfigError(f"sweep.q_grid: need QBERs in [0, 1], got {self.sweep_q_grid}")
        if self.sweep_lengths:  # the calibration bundle is read only when the key is set
            from .tables import load_distance_table

            unknown = set(self.sweep_lengths).difference(r.length_km for r in load_distance_table())
            if unknown:
                raise ConfigError(f"sweep.lengths: {sorted(unknown)} are not calibrated lengths")
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"RunConfig is immutable: replace() makes a copy with {name} changed")

    def replace(self, **changes) -> "RunConfig":
        """A copy with the given fields changed, checked again."""
        return RunConfig(**{**self._asdict(), **changes})

    def config_hash(self) -> str:
        """Hash of every parsed value but output.dir, so equal hashes mean equal inputs.

        Computed once per instance: the config is immutable, and replace()
        builds a new instance, which hashes afresh.
        """
        memo = self.__dict__
        if "_hash" not in memo:
            import hashlib  # here, its only use: no run reads it, and it costs every command's start-up

            values = self._asdict()
            del values["out_dir"]
            payload = json.dumps(values, sort_keys=True, separators=(",", ":")).encode()
            memo["_hash"] = hashlib.sha256(payload).hexdigest()[:16]
        return memo["_hash"]


def parse_flat(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines into a dict; '#' starts a comment (run configs and data/*.cfg)."""
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


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> RunConfig:
    """Config file plus command-line overrides, validated into a RunConfig."""
    items: dict[str, str] = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        with _stage():
            items = parse_flat(text)
    if overrides:
        items.update({k: str(v) for k, v in overrides.items() if v is not None})
    kwargs = {}
    for key, value in items.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        name, parse = _KEYS[key]
        try:
            kwargs[name] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    return RunConfig(**kwargs)  # its checks raise ConfigError


class KeyRateReport(NamedTuple):
    """Everything one pipeline run produced, in canonical serializable form.

    The report holds its config and serializes the config's hash in its
    place, so a run that is never written hashes nothing.
    """

    config: RunConfig
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
        d = self._asdict()
        del d["config"], d["wall_time_s"]
        d["config_hash"] = self.config.config_hash()
        return json.dumps(d, sort_keys=True, indent=1, allow_nan=False) + "\n"


def _model_behavior(config: RunConfig):
    noise = NoiseParams.from_visibilities(
        config.v_zz, config.v_xx, white_noise=config.white_noise, delta_phi=config.delta_phi
    )
    state = build_heralded_state(noise)
    return protocol.behavior_from_state(state, readout_flip=config.readout_flip)


def _link_models(config: RunConfig) -> tuple[link.LinkBudget, link.TimingModel]:
    """The arm link budget and trial timing that a run configures, each field from the RunConfig field of its name."""
    with _stage("link budget"):
        models = (link.LinkBudget, link.TimingModel)
        return tuple(model(*[getattr(config, name) for name in model._fields]) for model in models)


def _link_summary(config: RunConfig) -> dict:
    """The report's link summary: arm efficiency, heralding probability and event rate at the configured length."""
    with _stage("link budget"):  # _link_models's own ConfigError passes through, labelled once
        budget, timing = _link_models(config)
        eff = link.arm_efficiency(budget)
        p_s = link.success_probability_spi(config.alpha_excitation, eff)
        events_per_s = link.event_rate(p_s, timing, config.length_km)
    return {"length_km": config.length_km, "arm_efficiency": eff, "p_spi": p_s, "events_per_s": events_per_s}


def _operating_point(config: RunConfig):
    """What no block size changes: the model behavior, its (S, Q), the (S, Q) evaluated and the honest model there."""
    with _stage("physical model"):
        behavior = _model_behavior(config)
    s_model, q_model = behavior.chsh_value(), behavior.key_qber()
    s_eval = config.s_obs if config.s_obs is not None else s_model
    q_eval = config.q_obs if config.q_obs is not None else q_model
    with _stage("operating point"):
        model = HonestModel.from_chsh(s_eval, q_eval, config.gamma_a, config.gamma_b)
    return behavior, (s_model, q_model), (s_eval, q_eval), model


def _fronts(
    config: RunConfig, ns: Sequence[int], omega_test: float, model: HonestModel
) -> tuple[list[protocol.ProtocolParams], list[float]]:
    """The protocol at each block size of ns, its threshold and count box built around omega_test, and its leak_ec.

    All the boxes come from one build_acceptance_set call.
    """
    with _stage("acceptance test"):
        deltas = [
            config.delta
            if config.delta is not None
            else eat.delta_for_completeness(n, config.gamma_a, config.gamma_b, omega_test, target=config.eps_ea_com)
            for n in ns
        ]
        boxes = build_acceptance_set(ns, config.gamma_a, config.gamma_b, omega_test, config.eps_com_at)
        params = [
            protocol.ProtocolParams(
                n=n,
                gamma_a=config.gamma_a,
                gamma_b=config.gamma_b,
                omega_exp=omega_test,
                delta=delta,
                box_lo=box_lo,
                box_hi=box_hi,
                seed=config.seed,
            )
            for n, delta, (box_lo, box_hi) in zip(ns, deltas, boxes)
        ]
    with _stage("security"):
        return params, [eat.leak_ec(n, model, config.eps_ec_com) for n in ns]


def _key_lengths(
    config: RunConfig, params: Sequence[protocol.ProtocolParams], lecs: Sequence[float]
) -> tuple[list, list]:
    """Each point's EAT and Renyi results, None where the method does not run; one Renyi call for all points."""
    eat_res = renyi_res = [None] * len(params)
    with _stage(error=InfeasibleError):
        if config.method in ("eat", "both"):
            eat_res = [eat.key_length_eat(p, config.eps_snd, lec) for p, lec in zip(params, lecs)]
        if config.method in ("renyi", "both"):
            renyi_res = renyi.key_length_renyi(params, config.eps_snd, lecs, alpha=config.renyi_alpha)
    return eat_res, renyi_res


# the report's key-length fields, in each result's field order
_EAT_KEYS = tuple(f"eat_{name}" for name in eat.EatResult._fields)
_RENYI_KEYS = tuple(f"renyi_{name}" for name in renyi.RenyiResult._fields)
_NO_RESULT = (None,) * max(len(_EAT_KEYS), len(_RENYI_KEYS))


def run_pipeline(config: RunConfig) -> KeyRateReport:
    """Model -> (streamed rounds -> counts) -> estimates -> acceptance -> key lengths.

    The protocol and its acceptance test are fixed once as a
    ProtocolParams: omega_exp is the stated operating point in analytic
    mode and protocol.omega_exp (or the model's win probability) in a
    simulated run; delta is protocol.delta or the slack meeting
    eps_ea_com; the count box is built around the same omega_exp.
    A simulated run streams its rounds chunk by chunk into the count
    tensor, so it holds no n-long column.  ``protocol.accept`` tests the
    run's counts against this threshold and box in integers, and both
    key lengths are certified for them.  A sweep runs the same steps for
    many block sizes (sweep_keyrate_vs_n).
    """
    t0 = time.perf_counter()
    behavior, (s_model, q_model), (s_eval, q_eval), model = _operating_point(config)
    if config.analytic:
        omega_exp = model.omega
    else:  # the model's win probability only where a simulated run needs it
        omega_exp = config.omega_exp if config.omega_exp is not None else behavior.chsh_win_probability()
    (params,), (lec,) = _fronts(config, [config.n], omega_exp, model)
    link_summary = _link_summary(config)

    if config.analytic:
        s_hat = s_err = q_hat = q_err = beta = None
        accepted = accepted_box = None
        draws = 0
    else:
        before = rng.audit_total()
        est = protocol.estimate(protocol.simulate_rounds(behavior, params))
        draws = rng.audit_total() - before
        beta = est.counts[1] / params.n
        s_hat, s_err = est.s_hat, est.s_err
        # no key-basis round: the QBER was not measured, which the report says as an analytic run does
        q_hat, q_err = (None, None) if math.isnan(est.q_hat) else (est.q_hat, est.q_err)
        accepted, accepted_box = protocol.accept(est.counts, params)

    (eat_res,), (renyi_res,) = _key_lengths(config, [params], [lec])

    report = KeyRateReport(
        config=config,
        inputs={
            **{name: getattr(config, name) for name in "n gamma_a gamma_b eps_snd method analytic seed".split()},
            "omega_exp": params.omega_exp,
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
        # each result's fields by name, None where its method did not run
        **dict(zip(_EAT_KEYS, eat_res or _NO_RESULT)),
        eat_delta=None if eat_res is None else params.delta,
        **dict(zip(_RENYI_KEYS, renyi_res or _NO_RESULT)),
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
    The model and the honest point are built once; each n gets its own
    threshold, box and leak_ec, and one key_length_renyi call evaluates
    all points, each bit for bit as run_pipeline would.
    """
    config = config.replace(analytic=True)
    ns = [int(n) for n in sorted(n_grid)]
    _, _, (s_eval, q_eval), model = _operating_point(config)
    params, lecs = _fronts(config, ns, model.omega, model)
    eat_res, renyi_res = _key_lengths(config, params, lecs)
    rate_asym = eat.asymptotic_rate_sifted(s_eval, q_eval, config.gamma_a, config.gamma_b)
    return [
        {
            "n": n,
            "rate_eat": None if e is None else e.length / n,
            "rate_renyi": None if r is None else r.length / n,
            "rate_asym": rate_asym,
        }
        for n, e, r in zip(ns, eat_res, renyi_res)
    ]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(rows: list[dict], path: Path, config_hash: str) -> None:
    cols = list(rows[0].keys())
    lines = [f"# config_hash = {config_hash}", ",".join(cols)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in cols))
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path: Path, text: str) -> None:
    """Write one artifact; a path that cannot be written is a config error."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _parser() -> argparse.ArgumentParser:
    """The command line.  Every option but --config is named (dest) by the config key it overrides."""
    parser = argparse.ArgumentParser(prog="diqkd", description="Heralded-link CHSH key-rate toolkit")
    parser.add_argument("--config", default=None, help="flat key = value config file")
    parser.add_argument("--seed", dest="seed", help="64-bit master seed")
    parser.add_argument("--out", dest="output.dir", help="output directory")
    parser.add_argument(
        "--analytic", dest="security.analytic", action="store_const", const="true",
        help="skip simulation; evaluate stated (S, Q)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("pipeline", help="single end-to-end run")
    p_n = sub.add_parser("sweep-n", help="key rate vs block size")
    p_n.add_argument("--n-grid", dest="sweep.n_grid", help="comma-separated block sizes")
    p_c = sub.add_parser("contour", help="asymptotic rate over (S, Q)")
    p_c.add_argument("--s-grid", dest="sweep.s_grid", help="comma-separated CHSH values")
    p_c.add_argument("--q-grid", dest="sweep.q_grid", help="comma-separated QBERs")
    sub.add_parser("distance", help="link and rate summary per fiber length")
    sub.add_parser("pvalues", help="binomial-test table per fiber length")
    sub.add_parser("budget", help="infidelity budget consistency report")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    overrides = vars(_parser().parse_args(argv))
    config_path, command = overrides.pop("config"), overrides.pop("command")
    try:
        config = load_config(config_path, overrides)
        out_dir = Path(config.out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make the output directory {out_dir}: {exc}") from exc
        h = config.config_hash()

        if command == "pipeline":
            report = run_pipeline(config)
            path, text = out_dir / "report.json", report.to_json()
            _write_text(path, text)
            print(f"wrote {path} (wall time {report.wall_time_s:.2f}s)", file=sys.stderr)
            print(text, end="")
            gates = {
                "eat": [report.accepted],
                "renyi": [report.accepted_box],
                "both": [report.accepted, report.accepted_box],
            }
            if config.abort_is_error and False in gates[config.method]:
                return 2
            return 0

        if command == "sweep-n":
            write_csv(sweep_keyrate_vs_n(config, config.sweep_n_grid), out_dir / "keyrate_vs_n.csv", h)
            return 0

        from . import tables  # the table commands' builders and the calibration data they read

        if command == "contour":
            grid, zero = tables.sweep_asymptotic_contour(config.sweep_s_grid, config.sweep_q_grid)
            write_csv(grid, out_dir / "contour.csv", h)
            if zero:
                write_csv(zero, out_dir / "contour_zero.csv", h)
        elif command == "distance":
            write_csv(tables.sweep_rate_vs_distance(config), out_dir / "distance.csv", h)
        elif command == "pvalues":
            write_csv(tables.pvalue_table(), out_dir / "pvalues.csv", h)
        elif command == "budget":
            write_csv(tables.error_budget_report(), out_dir / "budget.csv", h)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
