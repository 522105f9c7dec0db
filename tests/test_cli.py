import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from diqkd import cli, eat, renyi
from diqkd import rng as rng_module
from diqkd.calibration import load_distance_table
from diqkd.link import LinkBudget, TimingModel
from diqkd.protocol import behavior_from_state
from diqkd.quantum import NoiseParams, build_heralded_state
from diqkd.cli import (
    ConfigError,
    RunConfig,
    error_budget_report,
    load_config,
    main,
    pvalue_table,
    run_pipeline,
    sweep_asymptotic_contour,
    sweep_keyrate_vs_n,
    sweep_rate_vs_distance,
)

PAPER_ANALYTIC = dict(
    analytic=True,
    s_obs=2.612,
    q_obs=0.0285,
    raw_items=(("analysis.s_obs", "2.612"),),
)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.n == 1_208_000
        assert cfg.method == "both"

    def test_load_with_overrides(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("protocol.n = 5000\nsecurity.method = eat\n# comment\nseed = 42\n")
        cfg = load_config(str(p), {"output.dir": "out"})
        assert cfg.n == 5000
        assert cfg.method == "eat"
        assert cfg.seed == 42
        assert cfg.out_dir == "out"

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
        a = RunConfig(raw_items=(("protocol.n", "1"),))
        b = RunConfig(raw_items=(("protocol.n", "2"),))
        assert a.config_hash() != b.config_hash()


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
        p.write_text("sweep.lengths = 11, 100\nlink.qfc = 0.5\ntiming.duty_cycle = 0.2\n")
        cfg = load_config(str(p))
        assert cfg.sweep_lengths == "11, 100"
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
            ("security.eps_ec", "1e-3"),  # not below eps_snd
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

        def recording(params, config, lec):
            orders.append(config.alpha)
            return original(params, config, lec)

        monkeypatch.setattr(renyi, "key_length_renyi", recording)
        cfg = RunConfig(method="renyi", renyi_alpha=1.01, delta=0.002)
        rows = sweep_keyrate_vs_n(cfg, [100_000])
        assert orders == [1.01]
        report = run_pipeline(replace(cfg, n=100_000, analytic=True))
        assert rows == [
            {"n": 100_000, "rate_eat": None, "rate_renyi": report.renyi_length / 100_000,
             "rate_asym": report.asymptotic_sifted}
        ]

    def test_sweep_runs_only_the_configured_method(self, monkeypatch):
        cfg = RunConfig(method="eat", renyi_alpha=1.01, delta=0.002)
        report = run_pipeline(replace(cfg, n=100_000, analytic=True))

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
        res = sweep_asymptotic_contour(s_grid, q_grid)
        rates = np.array(res["rates"])
        assert rates[-1, 0] == rates.max()  # best point: max S, zero error
        assert np.all(rates[0, :] <= 0.0)  # classical row certifies nothing
        assert res["zero_contour"]  # a boundary exists on this grid

    def test_contour_paper_point(self):
        res = sweep_asymptotic_contour([2.612], [0.0285])
        assert res["rates"][0][0] == pytest.approx(0.411, abs=5e-4)

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
        from diqkd.calibration import load_distance_table

        table = {r.length_km: r.pvalue_log10 for r in load_distance_table()}
        for row in pvalue_table():
            assert row["log10_p"] == pytest.approx(table[row["length_km"]], abs=2.0)
            assert row["log10_p"] < -5.0

    def test_measured_11km_row(self):
        # with the directly measured CHSH value of the key-generation run,
        # the implied significance is ~1e-293 (frozen against the oracle)
        rows = pvalue_table([(11.0, 39645, 2.612)])
        assert rows[0]["k"] == 32767
        assert rows[0]["log10_p"] == pytest.approx(-292.88, abs=0.01)


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
    "physical.sign": (_PIPE_EAT, None, "-1"),
    "protocol.n": (_PIPE_EAT, None, "200000"),
    "protocol.gamma_a": (_PIPE_EAT, None, "0.3"),
    "protocol.gamma_b": (_PIPE_EAT, None, "0.15"),
    "protocol.omega_exp": (_SIM_EAT, None, "0.82"),
    "protocol.delta": (_PIPE_EAT, None, "0.002"),
    "protocol.abort_is_error": (_ABORTING, None, "false"),
    "security.eps_snd": (_PIPE_EAT, None, "1e-6"),
    "security.eps_ec": (_PIPE_EAT, None, "1e-12"),
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
    """Two values of each key give different outputs (hash and inputs echo excluded) or exit codes."""
    monkeypatch.setattr(cli, "sweep_keyrate_vs_n", _stub_sweep_n)
    cache = {}

    def run(command, items):
        cache_key = (command, tuple(sorted(items.items())))
        if cache_key not in cache:
            out = tmp_path / f"run{len(cache)}"
            cfg = tmp_path / f"run{len(cache)}.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in items.items()))
            rc = main(["--config", str(cfg), "--out", str(out), *command])
            files = {}
            for path in sorted(out.iterdir()):
                text = path.read_text()
                if path.suffix == ".json":
                    report = json.loads(text)
                    del report["config_hash"], report["inputs"]
                    text = json.dumps(report, sort_keys=True)
                else:
                    text = text.split("\n", 1)[1]  # drop the config_hash line
                files[path.name] = text
            cache[cache_key] = (rc, files)
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
        if outputs[0] == outputs[1]:
            dead.append(key)
    assert not dead, f"keys that change no output: {dead}"
    assert set(LIVE_CASES) | OUTPUT_ONLY == set(cli._KEYS)
