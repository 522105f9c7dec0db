import argparse
import collections
import hashlib
import json
import math
import os

import numpy as np
import pytest

from diqkd import cli, eat, protocol, renyi
from diqkd import rng as rng_module
from diqkd.link import LinkBudget, TimingModel
from diqkd.mathcore import binomial_tail, chsh_to_winprob
from diqkd.protocol import ProtocolParams, behavior_from_state
from diqkd.quantum import NoiseParams, build_heralded_state
from diqkd.cli import ConfigError, RunConfig, load_config, main, parse_flat, run_pipeline, sweep_keyrate_vs_n
from diqkd.tables import (
    error_budget_report,
    load_distance_table,
    pvalue_table,
    sweep_asymptotic_contour,
    sweep_rate_vs_distance,
)

PAPER_ANALYTIC = dict(analytic=True, s_obs=2.612, q_obs=0.0285)
_COMMANDS = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.n == 1_208_000
        assert cfg.method == "both"

    def test_model_defaults_are_the_11km_calibration(self):
        # the defaults run the 11 km point, so its visibilities and excitation are the bundle's 11 km row
        cfg = RunConfig()
        (row,) = [r for r in load_distance_table() if r.length_km == cfg.length_km == 11.0]
        assert (cfg.v_zz, cfg.v_xx, cfg.alpha_excitation) == (row.v_zz, row.v_xx, row.alpha_excitation)

    def test_load_with_overrides(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("protocol.n = 5000\nsecurity.method = eat\n# comment\nseed = 42\n")
        cfg = load_config(str(p), {"output.dir": "out"})
        assert cfg.n == 5000
        assert cfg.method == "eat"
        assert cfg.seed == 42
        assert cfg.out_dir == "out"

    def test_parse_flat_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_flat("not a key value line")
        with pytest.raises(ValueError):
            parse_flat("a = 1\na = 2")
        assert parse_flat("# comment\n a.b = 3 # trailing\n") == {"a.b": "3"}

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("protocol.unknown = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("protocol.n = many\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    @pytest.mark.parametrize("eps_snd", [eat.EPS_EC, 1e-5, 1.0])
    @pytest.mark.parametrize("alpha", [1.0, 1.01, 2.0, 2.5])
    def test_config_rejects_what_the_certificates_reject(self, eps_snd, alpha):
        # the config makes the certificates' range checks up front, so a bad value exits 3 before any certificate runs
        def error(call):
            try:
                call()
            except ValueError as exc:
                return exc
            return None

        params = ProtocolParams(
            n=1000, gamma_a=0.26, gamma_b=0.13, omega_exp=0.8265, delta=0.0, box_lo=(0, 0, 0), box_hi=(1000,) * 3
        )
        overrides = {"security.eps_snd": repr(eps_snd), "security.renyi_alpha": repr(alpha)}
        rejected = error(lambda: load_config(None, overrides))
        assert rejected is None or isinstance(rejected, ConfigError)
        certified = [
            error(lambda: eat.key_length_eat(params, eps_snd, 0.0)),
            error(lambda: renyi.key_length_renyi([params], eps_snd, [0.0], alpha=alpha)),
        ]
        assert (rejected is not None) == any(certified)
        assert (eps_snd == 1e-5) == (certified[0] is None)

    def test_boolean_keys_reject_other_words(self):
        assert load_config(None, {"security.analytic": "YES"}).analytic is True
        assert load_config(None, {"protocol.abort_is_error": "0"}).abort_is_error is False
        with pytest.raises(ConfigError):
            load_config(None, {"security.analytic": "on"})

    def test_link_defaults_come_from_link_models(self):
        budget, timing = cli._link_models(RunConfig())
        assert budget == LinkBudget(length_km=11.0)
        assert timing == TimingModel()

    def test_hash_tracks_content(self):
        # the hash is taken over the parsed values, output.dir excepted
        assert RunConfig(n=1).config_hash() != RunConfig(n=2).config_hash()
        assert RunConfig(sweep_lengths=(11.0,)).config_hash() != RunConfig().config_hash()
        assert RunConfig(n=1).config_hash() == load_config(None, {"protocol.n": "1"}).config_hash()
        assert RunConfig(out_dir="a").config_hash() == RunConfig(out_dir="b").config_hash()

    def test_memoised_hash_equals_a_fresh_computation(self):
        config = RunConfig(n=1)
        first = config.config_hash()
        assert config.config_hash() == first == config.replace().config_hash()  # replace() hashes afresh
        assert config.replace(n=2).config_hash() == RunConfig(n=2).config_hash() != first
        assert config == RunConfig(n=1)  # the memo is no field


class TestHashCount:
    """A config is hashed only when an artifact is written, once per process."""

    @pytest.fixture
    def hashed(self, monkeypatch):
        calls = []
        sha256 = hashlib.sha256  # RunConfig.config_hash imports hashlib when it first hashes
        monkeypatch.setattr(hashlib, "sha256", lambda data: calls.append(data) or sha256(data))
        return calls

    def test_analytic_pipeline_and_sweep_hash_nothing(self, hashed):
        run_pipeline(RunConfig(**PAPER_ANALYTIC))
        sweep_keyrate_vs_n(RunConfig(**PAPER_ANALYTIC), [100_000, 1_208_000])
        assert hashed == []

    def test_main_pipeline_hashes_once(self, hashed, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "--analytic", "pipeline"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(hashed) == 1 and capsys.readouterr().out.count(report["config_hash"]) == 1


class TestLayerAttribution:
    """Per-run work stays inside the functions the benchmark's tracer wraps where cli looks them up."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = collections.Counter()
        for module, name in ((cli, "build_heralded_state"), (protocol, "behavior_from_state"), (cli, "build_acceptance_set")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _fn=fn, _name=name, **k: calls.update([_name]) or _fn(*a, **k))
        return calls

    def test_pipeline_calls_each_layer_once(self, counted):
        run_pipeline(RunConfig(**PAPER_ANALYTIC))
        assert counted == {"build_heralded_state": 1, "behavior_from_state": 1, "build_acceptance_set": 1}

    def test_sweep_sizes_every_box_in_one_call(self, counted):
        config = RunConfig(**PAPER_ANALYTIC)
        sweep_keyrate_vs_n(config, config.sweep_n_grid)
        assert counted["build_acceptance_set"] == 1


class TestPipelineAnalytic:
    def test_paper_numbers(self):
        report = run_pipeline(RunConfig(**PAPER_ANALYTIC))
        assert report.renyi_rate == pytest.approx(0.112, abs=0.015)
        assert report.eat_rate == pytest.approx(0.034, abs=0.015)
        assert report.eat_rate < report.renyi_rate
        assert report.asymptotic_sifted == pytest.approx(0.275, abs=0.002)
        assert report.asymptotic_nosift == pytest.approx(0.411, abs=0.002)
        assert report.renyi_length == pytest.approx(135_300, abs=18_000)
        assert report.accepted is None
        assert report.s_hat is None

    def test_never_touches_randomness(self):
        before = rng_module.audit_total()
        report = run_pipeline(RunConfig(method="eat", **PAPER_ANALYTIC))
        assert report.rng_draws == 0
        assert rng_module.audit_total() == before

    def test_byte_identical_reports(self):
        r1 = run_pipeline(RunConfig(method="eat", **PAPER_ANALYTIC))
        r2 = run_pipeline(RunConfig(method="eat", **PAPER_ANALYTIC))
        assert r1.to_json() == r2.to_json()
        assert r1.wall_time_s >= 0.0
        assert "wall_time" not in r1.to_json()

    def test_echoes_the_certified_threshold(self):
        # analytic runs test at the stated point's omega, not the model's
        report = run_pipeline(RunConfig(method="eat", **PAPER_ANALYTIC))
        assert report.inputs["omega_exp"] == 0.5 + 2.612 / 8.0

    def test_zero_noise_ideal_point(self):
        cfg = RunConfig(v_zz=1.0, v_xx=1.0, method="eat", analytic=True, n=10**6)
        report = run_pipeline(cfg)
        assert report.q_model == pytest.approx(0.0, abs=1e-12)
        assert report.s_model == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_raw_and_clamped_lengths(self):
        small = run_pipeline(RunConfig(n=2000, method="eat", analytic=True, s_obs=2.612, q_obs=0.0285))
        assert small.eat_raw_length < 0.0
        assert small.eat_length == 0.0
        big = run_pipeline(RunConfig(**PAPER_ANALYTIC))
        assert big.renyi_raw_length == big.renyi_length > 0

    def test_link_summary_and_overrides(self):
        cfg = RunConfig(measured_arm_transmission=0.683, method="eat", analytic=True, s_obs=2.612, q_obs=0.0285)
        report = run_pipeline(cfg)
        assert report.link_summary["arm_efficiency"] == pytest.approx(0.00763, abs=5e-6)
        assert report.link_summary["events_per_s"] == pytest.approx(0.75, abs=0.05)

    def test_sweep_keys_accepted(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "sweep.lengths = 11, 100\nsweep.n_grid = 1e5, 1.208e6\nsweep.q_grid = 0.01\n"
            "link.qfc = 0.5\ntiming.duty_cycle = 0.2\n"
        )
        cfg = load_config(str(p))  # grids are parsed when the config loads
        assert cfg.sweep_lengths == (11.0, 100.0)
        assert cfg.sweep_n_grid == (100_000, 1_208_000) and type(cfg.sweep_n_grid[0]) is int
        assert cfg.sweep_q_grid == (0.01,)
        assert cfg.qfc == 0.5
        assert cfg.duty_cycle == 0.2


class TestPipelineSimulated:
    def test_small_run_accepts_and_estimates(self):
        cfg = RunConfig(n=100_000, seed=5, method="eat")
        report = run_pipeline(cfg)
        assert report.accepted is True
        assert report.accepted_box is True
        assert report.rng_draws == 5 * cfg.n
        assert abs(report.q_hat - report.q_model) <= 4 * report.q_err
        assert abs(report.s_hat - report.s_model) <= 4 * report.s_err
        assert report.beta_freq == pytest.approx(
            0.26 * 0.13 * (0.5 + report.s_model / 8), abs=0.003
        )

    def test_key_is_certified_for_the_acceptance_delta(self):
        # the EAT length must be certified for the slack the run was accepted with
        cfg = RunConfig(n=200_000, seed=5, method="eat", eps_ea_com=1e-6)
        report = run_pipeline(cfg)
        assert report.accepted is True
        delta = eat.delta_for_completeness(cfg.n, cfg.gamma_a, cfg.gamma_b, report.inputs["omega_exp"], target=1e-6)
        assert report.eat_delta == delta

    def test_weaker_test_certifies_no_more_key(self):
        # the EAT length is certified at the threshold the run tested, so
        # accepting against a lower omega_exp must not certify more key
        tested = run_pipeline(RunConfig(method="eat"))
        weaker = run_pipeline(RunConfig(method="eat", omega_exp=0.78))
        assert tested.accepted is True and weaker.accepted is True
        assert weaker.eat_length <= tested.eat_length

    def test_replay_reproducible(self):
        cfg = RunConfig(n=30_000, seed=9, method="eat")
        assert run_pipeline(cfg).to_json() == run_pipeline(cfg).to_json()

    def test_run_functions_write_nothing(self, capfd):
        # only main writes: a stray print or warning would land in a run's output streams
        run_pipeline(RunConfig(**PAPER_ANALYTIC))
        run_pipeline(RunConfig(n=20_000, seed=5))
        sweep_keyrate_vs_n(RunConfig(), [10**5, 10**6])
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("key, value", [("link.collection", "1.5")])
    def test_bad_link_config_fails_before_any_draw(self, key, value):
        # the link is checked when the config is built, so no run or sweep starts on it
        before = rng_module.audit_total()
        with pytest.raises(ConfigError, match="link budget"):
            load_config(None, {key: value, "security.method": "eat", "protocol.n": "100000"})
        with pytest.raises(ConfigError, match="link budget"):
            RunConfig(method="eat", n=100_000).replace(**{cli._KEYS[key][0]: float(value)})
        assert rng_module.audit_total() == before


class TestMain:
    def test_pipeline_exit_zero(self, tmp_path, capsys):
        rc = main([
            "--config", os.devnull, "--out", str(tmp_path), "--analytic", "pipeline",
        ])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["rng_draws"] == 0

    def test_report_is_strict_json_below_three_quarters(self, tmp_path, capsys):
        # omega_exp - delta / gamma_eff < 3/4: the certificate clamps at 0
        # and the raw length stays finite instead of -Infinity
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "security.analytic = true\nanalysis.s_obs = 2.01\nanalysis.q_obs = 0.0285\nprotocol.n = 100000\n"
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path), "pipeline"]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        assert report["inputs"]["omega_exp"] - report["eat_delta"] / eat.gamma_eff(0.26, 0.13) < 0.75
        assert report["eat_length"] == 0
        assert report["eat_raw_length"] < 0

    def test_report_is_strict_json_without_a_key_round(self, tmp_path, capsys):
        # one round at the default seed is not an (x, y) = (0, 2) round: no QBER was measured,
        # which the report says with null, as an analytic run does, not with NaN
        cfg = tmp_path / "run.cfg"
        cfg.write_text("protocol.n = 1\nprotocol.abort_is_error = false\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path), "pipeline"]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        assert report["q_hat"] is None and report["q_err"] is None
        assert report["s_hat"] is not None

    def test_report_refuses_a_non_finite_number(self):
        report = run_pipeline(RunConfig(n=100_000, method="eat", **PAPER_ANALYTIC))
        with pytest.raises(ValueError, match="JSON"):
            report._replace(s_model=math.nan).to_json()

    def test_config_error_exit_three(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nope = 1\n")
        assert main(["--config", str(bad), "pipeline"]) == 3
        # out-of-range or malformed sweep grids, from flags and from config keys
        out = ["--out", str(tmp_path)]
        for argv in (
            ["contour", "--s-grid", "1.9,2.5"],
            ["contour", "--s-grid", "2.5,2.9"],
            ["contour", "--s-grid", "x"],
            ["contour", "--q-grid=-0.1,0.2"],
            ["sweep-n", "--n-grid", "abc"],
            ["sweep-n", "--n-grid", "inf"],
            ["sweep-n", "--n-grid", ","],
            ["sweep-n", "--n-grid", "12345.7,1e4"],  # block sizes are integers
        ):
            assert main(out + argv) == 3, argv
        for body, command in (
            ("sweep.s_grid = 1.9\n", "contour"),
            ("sweep.q_grid = q\n", "contour"),
            ("sweep.n_grid = 1e4,x\n", "sweep-n"),
            ("sweep.n_grid = 1e4,12345.7\n", "sweep-n"),
            ("sweep.lengths = 11,abc\n", "distance"),
            ("sweep.lengths = 11,12\n", "distance"),  # 12 km is not a calibrated length
            ("sweep.lengths = 12\n", "distance"),
            ("protocol.omega_exp = 0.80\n", "sweep-n"),  # every sweep point is an analytic run
            ("protocol.omega_exp = 1.5\n", "pipeline"),
        ):
            bad.write_text(body)
            assert main(["--config", str(bad)] + out + [command]) == 3, body

    @pytest.mark.parametrize("argv, artifact", [(["--analytic", "pipeline"], "report.json"), (["pvalues"], "pvalues.csv")])
    def test_unusable_out_exits_three(self, tmp_path, capsys, argv, artifact):
        # an --out below a regular file cannot be made; an artifact path held by a directory cannot be written
        (tmp_path / "file").write_text("")
        (tmp_path / "taken" / artifact).mkdir(parents=True)
        for out in (tmp_path / "file" / "sub", tmp_path / "taken"):
            assert main(["--out", str(out)] + argv) == 3, out
            assert capsys.readouterr().err.startswith("config error: "), out

    def test_module_invariant_violations_exit_three(self, tmp_path):
        # values that parse but violate the owning module's invariants
        cases = [
            "protocol.gamma_a = 1.7\n",
            "physical.v_zz = 1.5\n",
            "timing.duty_cycle = 2.0\n",
            "analysis.s_obs = 1.5\n",  # sub-classical stated operating point
            "protocol.omega_exp = 0.80\n",  # an analytic run tests the operating point, so this would be ignored
            "protocol.delta = nan\n",  # used to certify a NaN key length (and crash a simulated run's integer test)
        ]
        for body in cases:
            cfg = tmp_path / "c.cfg"
            cfg.write_text(body + "security.analytic = true\nsecurity.method = eat\n")
            assert main(["--config", str(cfg), "--out", str(tmp_path), "pipeline"]) == 3, body

    @pytest.mark.parametrize(
        "key, value",
        [
            ("security.eps_snd", "1.5"),
            ("security.eps_ec", "1e-3"),  # not a key: the tag's budget is the constant eat.EPS_EC
            ("security.eps_ec_com", "0"),
            ("security.renyi_alpha", "3"),
            ("security.eps_com_at", "1"),
            ("security.eps_com_at", "7"),
        ],
    )
    def test_out_of_range_security_values_exit_three(self, tmp_path, key, value):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\nsecurity.analytic = true\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path), "pipeline"]) == 3

    def test_tag_budget_is_not_a_key(self, tmp_path, capsys):
        # a budget below the tag's collision bound would lengthen both keys
        cfg = tmp_path / "c.cfg"
        cfg.write_text("security.eps_ec = 1e-30\nsecurity.analytic = true\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path), "pipeline"]) == 3
        assert "unknown config key 'security.eps_ec'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pipeline", "sweep-n"])
    def test_unreachable_heralding_probability_exits_three(self, tmp_path, capsys, command):
        # an excitation probability above 1 used to end the pipeline in a ValueError traceback
        cfg = tmp_path / "c.cfg"
        cfg.write_text("link.alpha_excitation = 2\nsecurity.analytic = true\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path), command]) == 3
        assert "link budget: alpha=2.0 outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @pytest.mark.parametrize(
        "body, message",
        [
            ("physical.readout_flip = 2\n", "physical model: readout_flip=2.0 outside [0, 1]"),
            ("link.alpha_excitation = 2\n", "link budget: alpha=2.0 outside [0, 1]"),
            ("link.collection = 1.5\n", "link budget: collection=1.5 outside [0, 1]"),
            ("timing.duty_cycle = 0\n", "link budget: duty cycle must lie in (0, 1]"),
            ("link.length_km = -1\n", "link budget: length must be nonnegative"),
            ("physical.v_zz = 1.5\n", "physical model: v_zz=1.5 not reachable (alpha=-0.25)"),
            ("physical.white_noise = 1.5\n", "physical model: white_noise must lie in [0, 1)"),
            (
                "link.alpha_excitation = 1\nlink.collection = 1\nlink.fiber_coupling = 1\nlink.qfc = 1\n"
                "link.insertion = 1\nlink.bsm = 1\nlink.detector = 1\nlink.measured_arm_transmission = 1\n",
                "link budget: success probability 2.0 exceeds 1; inputs are inconsistent",
            ),
        ],
    )
    def test_out_of_range_model_key_exits_three_on_every_command(self, tmp_path, capsys, body, message, command):
        # checked when the config loads, with the pipeline's message: the table commands, which never run
        # the model or the link, reject it too
        cfg = tmp_path / "c.cfg"
        cfg.write_text(body)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), command]) == 3
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_out_of_range_readout_flip_exits_three(self, tmp_path, capsys):
        # the outcome model's range check is the one check of the flip probability
        cfg = tmp_path / "c.cfg"
        cfg.write_text("physical.readout_flip = 1.5\nsecurity.analytic = true\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path), "pipeline"]) == 3
        assert "physical model: readout_flip=1.5 outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, argv, message",
        [
            ("foo\n", ["pipeline"], "line 1: expected 'key = value', got 'foo'"),
            ("security.method = foo\n", ["pipeline"], "method must be eat, renyi or both, got 'foo'"),
            ("analysis.q_obs = 0.6\n", ["--analytic", "pipeline"], "operating point: q=0.6 outside [0, 1/2]"),
            ("security.eps_com_at = 2\n", ["--analytic", "pipeline"],
             "acceptance test: eps_com_at must lie in (0, 1), got 2.0"),
            ("security.eps_ec_com = 2\n", ["--analytic", "pipeline"], "security: eps_ec_com must lie in (0, 1)"),
            ("link.collection = 1.5\n", ["--analytic", "pipeline"], "link budget: collection=1.5 outside [0, 1]"),
            ("link.collection = 1.5\n", ["sweep-n"], "link budget: collection=1.5 outside [0, 1]"),
            ("link.collection = 1.5\n", ["distance"], "link budget: collection=1.5 outside [0, 1]"),
            # RunConfig allows S to 2 sqrt2 + 1e-12; the entropy bound's own domain ends about 8e-15 above it
            ("", ["contour", "--s-grid", "2.8284271247467", "--q-grid", "0.01"],
             "contour grid: g is defined on [3/4, (2+sqrt2)/4], got 0.8535533905933375"),
            ("sweep.lengths = 11,12\n", ["distance"], "sweep.lengths: [12.0] are not calibrated lengths"),
        ],
    )
    def test_each_stage_names_itself_once(self, tmp_path, capsys, body, argv, message):
        # one stderr line, the failing stage's label written once, and no artifact
        cfg = tmp_path / "c.cfg"
        cfg.write_text(body)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), *argv]) == 3
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert not list((tmp_path / "out").glob("*"))  # made only after the config loads

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_uncalibrated_length_rejected_by_every_command(self, tmp_path, capsys, command):
        # distance reads sweep.lengths, but every command rejects a length the bundle lacks
        cfg = tmp_path / "c.cfg"
        cfg.write_text("sweep.lengths = 12\nsecurity.analytic = true\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path), command]) == 3
        assert capsys.readouterr() == ("", "config error: sweep.lengths: [12.0] are not calibrated lengths\n")
        assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.json"))

    def test_missing_config_file_exits_three(self, tmp_path, capsys):
        path = tmp_path / "missing.cfg"
        assert main(["--config", str(path), "--out", str(tmp_path), "pipeline"]) == 3
        assert capsys.readouterr() == (
            "", f"config error: cannot read config {path}: [Errno 2] No such file or directory: '{path}'\n"
        )

    def test_key_length_failure_exits_four(self, tmp_path, capsys, monkeypatch):
        def infeasible(*args, **kwargs):
            raise ValueError("no split certifies a key")

        monkeypatch.setattr(eat, "key_length_eat", infeasible)
        assert main(["--out", str(tmp_path), "--analytic", "pipeline"]) == 4
        assert capsys.readouterr() == ("", "infeasible: no split certifies a key\n")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "command, flag, key, value",
        [
            ("sweep-n", "--n-grid", "sweep.n_grid", "5e5,1e7"),
            ("contour", "--s-grid", "sweep.s_grid", "2.5,2.7"),
            ("contour", "--q-grid", "sweep.q_grid", "0.01,0.03"),
        ],
    )
    def test_grid_flag_is_its_config_key(self, tmp_path, command, flag, key, value):
        # a grid given by flag or by key writes the same bytes, config hash included
        out = ["--out", str(tmp_path / "out")]
        assert main(out + [command, flag, value]) == 0
        by_flag = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert main(["--config", str(cfg)] + out + [command]) == 0
        assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == by_flag

    def test_grid_flag_enters_the_hash(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "sweep_keyrate_vs_n", _stub_sweep_n)
        hashes = set()
        for grid in ("1e5", "1e6"):
            assert main(["--out", str(tmp_path), "sweep-n", "--n-grid", grid]) == 0
            hashes.add((tmp_path / "keyrate_vs_n.csv").read_text().splitlines()[0])
        assert len(hashes) == 2

    @pytest.mark.parametrize(
        "a, b",
        [
            ((["sweep-n", "--n-grid", "1e5"], ""), (["sweep-n"], "sweep.n_grid = 100000\n")),
            ((["sweep-n", "--n-grid", "1e5"], ""), (["sweep-n", "--n-grid", "100000"], "")),
            ((["sweep-n", "--n-grid", "1e5,1e6"], ""), (["sweep-n", "--n-grid", "1e5, 1e6"], "")),
            ((["sweep-n"], ""), (["--seed", "20260808", "sweep-n"], "")),
            ((["sweep-n"], ""), (["sweep-n"], "seed = 20260808\nsecurity.analytic = false\n")),
            ((["sweep-n"], ""), (["sweep-n"], "")),
        ],
        ids=["flag-and-key", "1e5-and-100000", "spacing", "default-seed-flag", "default-keys", "out-dir"],
    )
    def test_equal_values_write_one_hash(self, tmp_path, monkeypatch, a, b):
        # each side writes to its own --out, which the hash leaves out
        monkeypatch.setattr(cli, "sweep_keyrate_vs_n", _stub_sweep_n)
        written = []
        for i, (argv, body) in enumerate((a, b)):
            cfg, out = tmp_path / f"{i}.cfg", tmp_path / f"out{i}"
            cfg.write_text(body)
            assert main(["--config", str(cfg), "--out", str(out), *argv]) == 0
            written.append((out / "keyrate_vs_n.csv").read_text())
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "body",
        ["sweep.n_grid = x\n", "sweep.n_grid = 1e4,12345.7\n", "sweep.s_grid = inf\n", "sweep.q_grid = ,\n",
         "sweep.lengths = abc\n", "sweep.lengths =\n"],
    )
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_malformed_grid_rejected_by_every_command(self, tmp_path, capsys, body, command):
        # grids are parsed when the config loads, so a command that never reads one still rejects it
        cfg = tmp_path / "c.cfg"
        cfg.write_text(body)
        assert main(["--config", str(cfg), "--out", str(tmp_path), command]) == 3
        assert f"bad value for {body.split()[0]}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize(
        "body, message",
        [("sweep.s_grid = 1.9\n", "sweep.s_grid: need CHSH values in [2, 2 sqrt 2]"),
         ("sweep.n_grid = 1e4,0\n", "sweep.n_grid: block sizes must be >= 1"),
         ("sweep.q_grid = 0.01,1.5\n", "sweep.q_grid: need QBERs in [0, 1]")],
    )
    def test_out_of_range_grid_rejected_by_a_command_that_never_reads_it(self, tmp_path, capsys, body, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(body)
        assert main(["--config", str(cfg), "--out", str(tmp_path), "--analytic", "pipeline"]) == 3
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.json"))

    def test_every_flag_overrides_a_config_key(self, tmp_path, monkeypatch):
        """Each option but --config and --help sets a config value; each but --out enters the config hash."""
        monkeypatch.chdir(tmp_path)
        seen = []

        def recording(path=None, overrides=None):
            seen.append(load_config(path, overrides))
            raise ConfigError("stop before the command runs")

        monkeypatch.setattr(cli, "load_config", recording)
        parser = cli._parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        checked = set()
        for command, subparser in sub.choices.items():
            assert main([command]) == 3
            (plain,) = seen
            assert plain == RunConfig()
            for owner in (parser, subparser):
                for action in owner._actions:
                    if not action.option_strings or action.dest in ("config", "help"):
                        continue
                    name = action.option_strings[0]
                    # a value in range for each: CHSH grids lie in [2, 2 sqrt 2] and QBER grids in [0, 1]
                    value = {"--s-grid": "2.7", "--q-grid": "0.7"}.get(name, "7")
                    flag = [name] + ([] if action.nargs == 0 else [value])
                    seen.clear()
                    assert main(flag + [command] if owner is parser else [command] + flag) == 3
                    (config,) = seen
                    assert config != plain, flag
                    assert (config.config_hash() == plain.config_hash()) == (flag[0] == "--out"), flag
                    checked.add(flag[0])
            seen.clear()
        assert checked == {"--seed", "--out", "--analytic", "--n-grid", "--s-grid", "--q-grid"}

    def test_abort_exit_two(self, tmp_path):
        # expected win probability far above the honest model forces abort
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "protocol.n = 100000\nprotocol.omega_exp = 0.8535\nprotocol.delta = 0.0001\n"
            "physical.v_zz = 0.85\nphysical.v_xx = 0.85\n"
            "security.method = eat\nseed = 3\n"
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path), "pipeline"]) == 2

    def test_box_rejection_exit_two_for_renyi(self, tmp_path):
        # the threshold test accepts this transcript, the frequency box rejects it
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "protocol.n = 100000\nseed = 3\nphysical.v_zz = 0.85\nphysical.v_xx = 0.85\n"
            "protocol.omega_exp = 0.8535\nprotocol.delta = 0.03\n"
            "security.method = renyi\nsecurity.renyi_alpha = 1.01\n"
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path), "pipeline"]) == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["accepted"] is True and report["accepted_box"] is False

    def test_pvalues_and_budget_commands(self, tmp_path):
        assert main(["--out", str(tmp_path), "pvalues"]) == 0
        assert main(["--out", str(tmp_path), "budget"]) == 0
        pv = (tmp_path / "pvalues.csv").read_text().splitlines()
        assert pv[0].startswith("# config_hash = ")
        assert pv[1].split(",")[0] == "length_km"
        assert len(pv) == 7

    def test_distance_and_contour_commands(self, tmp_path):
        assert main(["--out", str(tmp_path), "distance"]) == 0
        assert main([
            "--out", str(tmp_path), "contour", "--s-grid", "2.0,2.4,2.8", "--q-grid", "0.0,0.05,0.1",
        ]) == 0
        assert (tmp_path / "distance.csv").exists()
        assert (tmp_path / "contour.csv").exists()


class TestSweeps:
    def test_keyrate_vs_n_ordering(self):
        cfg = RunConfig(**PAPER_ANALYTIC)
        rows = sweep_keyrate_vs_n(cfg, [100_000, 1_208_000])
        assert [r["n"] for r in rows] == [100_000, 1_208_000]
        for r in rows:
            assert r["rate_eat"] <= r["rate_asym"] + 1e-12
            assert r["rate_renyi"] <= r["rate_asym"] + 1e-12
        paper = rows[-1]
        assert paper["rate_renyi"] > paper["rate_eat"]

    def test_large_n_crossover_exists(self):
        cfg = RunConfig(**PAPER_ANALYTIC)
        rows = sweep_keyrate_vs_n(cfg, [1_208_000, 10**9])
        assert rows[0]["rate_renyi"] > rows[0]["rate_eat"]
        assert rows[1]["rate_renyi"] < rows[1]["rate_eat"]

    def test_sweep_point_is_the_analytic_pipeline(self, monkeypatch):
        orders = []
        original = renyi.key_length_renyi

        def recording(params, eps_snd, lecs, alpha=None):
            orders.append(alpha)
            return original(params, eps_snd, lecs, alpha=alpha)

        monkeypatch.setattr(renyi, "key_length_renyi", recording)
        cfg = RunConfig(method="renyi", renyi_alpha=1.01, delta=0.002)
        rows = sweep_keyrate_vs_n(cfg, [100_000])
        assert orders == [1.01]
        report = run_pipeline(cfg.replace(n=100_000, analytic=True))
        assert rows == [
            {"n": 100_000, "rate_eat": None, "rate_renyi": report.renyi_length / 100_000,
             "rate_asym": report.asymptotic_sifted}
        ]

    def test_sweep_rows_equal_one_pipeline_per_point(self):
        # the oracle: each row of the batched sweep, bit for bit, from its own analytic pipeline run
        cfg = RunConfig(**PAPER_ANALYTIC)
        rows = sweep_keyrate_vs_n(cfg, cfg.sweep_n_grid)
        want = []
        for n in sorted(cfg.sweep_n_grid):
            report = run_pipeline(cfg.replace(n=n, analytic=True))
            want.append(
                {"n": n, "rate_eat": report.eat_length / n, "rate_renyi": report.renyi_length / n,
                 "rate_asym": report.asymptotic_sifted}
            )
        assert rows == want

    def test_sweep_runs_only_the_configured_method(self, monkeypatch):
        cfg = RunConfig(method="eat", renyi_alpha=1.01, delta=0.002)
        report = run_pipeline(cfg.replace(n=100_000, analytic=True))

        def no_renyi(*args, **kwargs):
            raise AssertionError("key_length_renyi called for method = eat")

        monkeypatch.setattr(renyi, "key_length_renyi", no_renyi)
        assert sweep_keyrate_vs_n(cfg, [100_000]) == [
            {"n": 100_000, "rate_eat": report.eat_length / 100_000, "rate_renyi": None,
             "rate_asym": report.asymptotic_sifted}
        ]

    def test_contour_properties(self):
        s_grid = list(np.linspace(2.0, 2 * math.sqrt(2), 12))
        q_grid = list(np.linspace(0.0, 0.12, 12))
        grid, zero = sweep_asymptotic_contour(s_grid, q_grid)
        assert [(r["s"], r["q"]) for r in grid] == [(x, y) for x in s_grid for y in q_grid]
        rates = np.array([r["rate"] for r in grid]).reshape(len(s_grid), len(q_grid))
        assert rates[-1, 0] == rates.max()  # best point: max S, zero error
        assert np.all(rates[0, :] <= 0.0)  # classical row certifies nothing
        assert zero  # a boundary exists on this grid

    def test_contour_paper_point(self):
        grid, _ = sweep_asymptotic_contour([2.612], [0.0285])
        assert grid == [{"s": 2.612, "q": 0.0285, "rate": pytest.approx(0.411, abs=5e-4)}]

    def test_distance_sweep(self):
        rows = sweep_rate_vs_distance(RunConfig())
        assert [r["length_km"] for r in rows] == [11.0, 20.0, 50.0, 70.0, 100.0]
        for r in rows:
            assert r["rate_per_event"] > 0.0
            assert abs(r["fidelity_model"] - r["fidelity_target"]) <= 0.01
            assert r["p_spi"] > r["p_tpi"]
        assert rows[0]["events_per_s"] == pytest.approx(0.72, rel=0.10)
        assert rows[-1]["events_per_s"] / rows[-1]["events_per_s_tpi"] > 100.0

    def test_distance_columns_match_the_model_path(self):
        # s_model = sqrt2 (v_zz + v_xx) and the row's qber are what the
        # pipeline's heralded-state model gives at each shipped length
        for cal, row in zip(load_distance_table(), sweep_rate_vs_distance(RunConfig()), strict=True):
            assert row["length_km"] == cal.length_km
            state = build_heralded_state(NoiseParams.from_visibilities(cal.v_zz, cal.v_xx))
            behavior = behavior_from_state(state)
            assert row["s_model"] == pytest.approx(behavior.chsh_value(), abs=1e-12)
            assert row["qber"] == pytest.approx(behavior.key_qber(), abs=1e-12)


class TestPvalueTable:
    def test_shipped_rows_reproduce_published_pvalues(self):
        table = {r.length_km: r.pvalue_log10 for r in load_distance_table()}
        for row in pvalue_table():
            assert row["log10_p"] == pytest.approx(table[row["length_km"]], abs=2.0)
            assert row["log10_p"] < -5.0

    def test_measured_11km_row(self):
        # with the directly measured CHSH value of the key-generation run,
        # the implied significance is ~1e-293 (frozen against the oracle)
        k = round(39645 * chsh_to_winprob(2.612))
        assert k == 32767
        assert binomial_tail(39645, k, 0.75) * math.log10(2.0) == pytest.approx(-292.88, abs=0.01)


class TestErrorBudget:
    def test_row_sums_match_totals(self):
        for row in error_budget_report():
            assert row["row_sum"] == pytest.approx(row["total"], abs=1e-4)

    def test_endpoints_within_budget(self):
        rows = {r["length_km"]: r for r in error_budget_report()}
        assert rows[11.0]["measured_infidelity"] == pytest.approx(0.053, abs=1e-9)
        assert rows[11.0]["within_budget"]
        assert rows[100.0]["measured_infidelity"] == pytest.approx(0.089, abs=1e-9)
        assert rows[100.0]["within_budget"]


# Every config key must change some command's output.  Each case is
# (command, base config, two values of the key); None leaves the key unset.
_PIPE_EAT = (("pipeline",), {"security.analytic": "true", "security.method": "eat", "protocol.n": "100000"})
_PIPE_RENYI = (
    ("pipeline",),
    {"security.analytic": "true", "security.method": "renyi", "security.renyi_alpha": "1.01", "protocol.n": "100000"},
)
_SIM_EAT = (("pipeline",), {"security.method": "eat", "protocol.n": "20000"})
_ABORTING = (
    ("pipeline",),
    {"security.method": "eat", "protocol.n": "20000", "physical.v_zz": "0.85", "physical.v_xx": "0.85",
     "protocol.omega_exp": "0.8535", "protocol.delta": "0.0001"},
)
_DISTANCE = (("distance",), {})
_CONTOUR = (("contour",), {"sweep.s_grid": "2.5,2.7", "sweep.q_grid": "0.01,0.03"})
_SWEEP_N = (("sweep-n",), {})

LIVE_CASES = {
    "physical.v_zz": (_PIPE_EAT, None, "0.93"),
    "physical.v_xx": (_PIPE_EAT, None, "0.91"),
    "physical.white_noise": (_PIPE_EAT, None, "0.01"),
    "physical.readout_flip": (_PIPE_EAT, None, "0.01"),
    "physical.delta_phi": (_PIPE_EAT, None, "0.3"),
    "protocol.n": (_PIPE_EAT, None, "200000"),
    "protocol.gamma_a": (_PIPE_EAT, None, "0.3"),
    "protocol.gamma_b": (_PIPE_EAT, None, "0.15"),
    "protocol.omega_exp": (_SIM_EAT, None, "0.82"),
    "protocol.delta": (_PIPE_EAT, None, "0.002"),
    "protocol.abort_is_error": (_ABORTING, None, "false"),
    "security.eps_snd": (_PIPE_EAT, None, "1e-6"),
    "security.eps_ec_com": (_PIPE_EAT, None, "0.01"),
    "security.eps_com_at": (_PIPE_RENYI, None, "0.05"),
    "security.eps_ea_com": (_PIPE_EAT, None, "1e-6"),
    "security.method": (_PIPE_RENYI, None, "eat"),
    "security.renyi_alpha": (_PIPE_RENYI, None, "1.02"),
    "security.analytic": (_SIM_EAT, None, "true"),
    "analysis.s_obs": (_PIPE_EAT, None, "2.612"),
    "analysis.q_obs": (_PIPE_EAT, None, "0.0285"),
    "link.length_km": (_PIPE_EAT, None, "20"),
    "link.alpha_excitation": (_PIPE_EAT, None, "0.03"),
    "link.atten_db_per_km": (_PIPE_EAT, None, "0.4"),
    "link.measured_arm_transmission": (_PIPE_EAT, None, "0.683"),
    "link.collection": (_DISTANCE, None, "0.1"),
    "link.fiber_coupling": (_DISTANCE, None, "0.6"),
    "link.qfc": (_DISTANCE, None, "0.2"),
    "link.insertion": (_DISTANCE, None, "0.9"),
    "link.bsm": (_DISTANCE, None, "0.8"),
    "link.detector": (_DISTANCE, None, "0.9"),
    "timing.overhead_s": (_DISTANCE, None, "20e-6"),
    "timing.duty_cycle": (_DISTANCE, None, "0.5"),
    "sweep.n_grid": (_SWEEP_N, "1e5", "1e5,1e6"),
    "sweep.s_grid": (_CONTOUR, None, "2.5,2.6"),
    "sweep.q_grid": (_CONTOUR, None, "0.01,0.02"),
    "sweep.lengths": (_DISTANCE, None, "11,100"),
    "seed": (_SIM_EAT, None, "1"),
}
OUTPUT_ONLY = {"output.dir"}  # names where outputs go, changes none of them


def _stub_sweep_n(config, n_grid):
    return [{"n": n, "rate_eat": 0.0, "rate_renyi": 0.0, "rate_asym": 0.0} for n in n_grid]


def test_every_config_key_is_live(tmp_path, monkeypatch):
    """Two values of each key give different outputs (hash and inputs echo excluded) or exit codes.

    A value that is only rejected (exit 3) shows nothing of what the key does.
    The two values also give two config hashes.
    """
    monkeypatch.setattr(cli, "sweep_keyrate_vs_n", _stub_sweep_n)
    cache = {}

    def run(command, items):
        cache_key = (command, tuple(sorted(items.items())))
        if cache_key not in cache:
            out = tmp_path / f"run{len(cache)}"
            cfg = tmp_path / f"run{len(cache)}.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in items.items()))
            rc = main(["--config", str(cfg), "--out", str(out), *command])
            files, hashes = {}, set()
            for path in sorted(out.iterdir()):
                text = path.read_text()
                if path.suffix == ".json":
                    report = json.loads(text)
                    hashes.add(report.pop("config_hash"))
                    del report["inputs"]
                    text = json.dumps(report, sort_keys=True)
                else:
                    head, text = text.split("\n", 1)  # split off the config_hash line
                    hashes.add(head.removeprefix("# config_hash = "))
                files[path.name] = text
            assert len(hashes) <= 1, hashes  # the files of one run name one hash
            cache[cache_key] = (rc, files, hashes)
        return cache[cache_key]

    dead = []
    for key in sorted(cli._KEYS):
        if key in OUTPUT_ONLY:
            continue
        if key not in LIVE_CASES:
            dead.append(f"{key}: no case")
            continue
        (command, base), a, b = LIVE_CASES[key]
        outputs = [run(command, {**base, **({} if v is None else {key: v})}) for v in (a, b)]
        if any(rc == 3 for rc, _, _ in outputs):
            dead.append(f"{key}: config error")
        elif outputs[0][:2] == outputs[1][:2]:
            dead.append(key)
        elif outputs[0][2] == outputs[1][2]:
            dead.append(f"{key}: one config hash")
    assert not dead, f"keys that change no output: {dead}"
    assert set(LIVE_CASES) | OUTPUT_ONLY == set(cli._KEYS)
