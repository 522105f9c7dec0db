"""Self-tests of the benchmark: every output check can fail, tracing is faithful.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import hostprobe  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from diqkd import cli, eat, postprocess, protocol  # noqa: E402
from spans import Target, Tracer  # noqa: E402

N = 1_208_000
ANALYTIC = {
    "asymptotic_sifted": 0.27502927083557066,
    "renyi_rate": checks.RENYI_RATE_REF,
    "renyi_length": 134794.5895238588,
    "eat_rate": 0.04617914074056497,
}
SIMULATED = {
    "accepted": True,
    "accepted_box": True,
    "rng_draws": 5 * N,
    "s_hat": 2.6496861658622115,
    "s_model": 2.640336720950568,
    "s_err": 0.014883915822448301,
    "eat_rate": checks.SIM_EAT_RATE_REF,
}
SWEEP = [
    {"n": 500_000, "rate_eat": 0.0, "rate_renyi": 0.038646224140604334, "rate_asym": 0.27502927083557066},
    {"n": 10_000_000, "rate_eat": 0.19554495147487197, "rate_renyi": 0.20303034041476326, "rate_asym": 0.27502927083557066},
]


class TestChecksFail:
    def test_analytic_reference_passes(self):
        assert checks.check_analytic(ANALYTIC, 0) == []

    @pytest.mark.parametrize(
        "change, draws",
        [
            ({"renyi_rate": checks.RENYI_RATE_REF * (1 + 1e-6)}, 0),
            ({"asymptotic_sifted": 0.2775}, 0),
            ({"renyi_length": 116_000.0}, 0),
            ({"eat_rate": 0.05}, 0),
            ({"eat_rate": None}, 0),
            ({}, 1),
        ],
    )
    def test_analytic_perturbed_fails(self, change, draws):
        assert checks.check_analytic({**ANALYTIC, **change}, draws)

    def test_simulated_reference_passes(self):
        assert checks.check_simulated(SIMULATED, 5 * N, N) == []

    @pytest.mark.parametrize(
        "change, draws",
        [
            ({"accepted": False}, 5 * N),
            ({"accepted_box": False}, 5 * N),
            ({"accepted": None}, 5 * N),
            ({"rng_draws": 5 * N - 1}, 5 * N),
            ({}, 5 * N + 1),
            ({"s_hat": 2.640336720950568 + 5.01 * 0.014883915822448301}, 5 * N),
            ({"eat_rate": checks.SIM_EAT_RATE_REF * (1 + 1e-8)}, 5 * N),
            ({"eat_rate": checks.SIM_EAT_RATE_REF * (1 - 1e-8)}, 5 * N),
        ],
    )
    def test_simulated_perturbed_fails(self, change, draws):
        assert checks.check_simulated({**SIMULATED, **change}, draws, N)

    def test_sweep_reference_passes(self):
        assert checks.check_sweep(SWEEP) == []

    @pytest.mark.parametrize(
        "row, change",
        [
            (0, {"rate_renyi": 0.038646224140604334 * (1 + 1e-6)}),
            (1, {"rate_renyi": 0.20303034041476326 * (1 + 1e-6)}),
            (1, {"rate_eat": 0.28}),
            (0, {"rate_eat": -1e-3}),
            (0, {"n": 1_000_000}),
        ],
    )
    def test_sweep_perturbed_fails(self, row, change):
        rows = [dict(r) for r in SWEEP]
        rows[row].update(change)
        assert checks.check_sweep(rows)


class TestExtractReferences:
    @pytest.fixture(scope="class")
    def case(self):
        gen = np.random.default_rng(11)
        m, ell = 4096, 512
        raw = gen.integers(0, 2, m, dtype=np.uint8)
        seed = gen.integers(0, 2, m + ell - 1, dtype=np.uint8)
        key = postprocess.TagKey.from_bits(postprocess.BitString(gen.integers(0, 2, 256, dtype=np.uint8)))
        got = postprocess.toeplitz_extract(postprocess.BitString(raw), postprocess.ToeplitzSeed(postprocess.BitString(seed)), ell)
        tag = postprocess.verify_tag(postprocess.BitString(raw), key)
        ref = checks.toeplitz_reference(raw, seed, ell, np.arange(ell))
        return got.bits, tag, ref, checks.tag_reference(raw, key.point, key.mixer)

    def test_package_output_passes(self, case):
        bits, tag, ref, ref_tag = case
        assert checks.check_extract(bits, tag, ref, ref_tag) == []

    def test_flipped_bit_fails(self, case):
        bits, tag, ref, ref_tag = case
        for i in (0, 137, bits.size - 1):
            flipped = bits.copy()
            flipped[i] ^= 1
            assert checks.check_extract(flipped, tag, ref, ref_tag)

    def test_other_tag_or_length_fails(self, case):
        bits, tag, ref, ref_tag = case
        assert checks.check_extract(bits, tag ^ 1, ref, ref_tag)
        assert checks.check_extract(bits[:-1], tag, ref, ref_tag)

    def test_reference_matches_hand_worked_example(self):
        # m=3, ell=2, seed=1011: rows [1,0,1] and [1,1,0]; raw=110 -> (1,0)
        out = checks.toeplitz_reference(np.array([1, 1, 0], np.uint8), np.array([1, 0, 1, 1], np.uint8), 2, [0, 1])
        assert out.tolist() == [1, 0]


class _Fake:
    root = "bench.fake"

    def __init__(self, outputs, problems=()):
        self._outputs = iter(outputs)
        self._problems = list(problems)

    def op(self):
        value = next(self._outputs)
        if isinstance(value, Exception):
            raise value
        return value

    def check(self, out, draws):
        return list(self._problems)

    def report(self, out):
        return str(out).encode()

    def rates(self, out):
        return {"key_rate": 1.0}


class TestWorkerCounting:
    def test_failed_check_counts(self):
        res = worker.measure(_Fake([1] * 100, problems=["perturbed"]), 0.0, trace=False)
        assert res["attempted"] == 1 and len(res["failures"]) == 1 and res["wall_s"] == []

    def test_exception_counts(self):
        res = worker.measure(_Fake([RuntimeError("boom")]), 0.0, trace=False)
        assert len(res["failures"]) == 1 and "boom" in res["failures"][0]["problems"][0]

    def test_changed_report_bytes_count(self):
        res = worker.measure(_Fake([1, 2]), 0.0, trace=True)
        assert res["attempted"] == 2 and [f["traced"] for f in res["failures"]] == [True]
        assert any("report bytes differ" in p for p in res["failures"][0]["problems"])


class _Spin(_Fake):
    def __init__(self, seconds):
        super().__init__([])
        self._seconds = seconds

    def op(self):
        end = time.perf_counter() + self._seconds
        while time.perf_counter() < end:
            pass
        return 0


class _Sleep(_Fake):
    """An operation whose time is spent outside every wrapped function."""

    def __init__(self):
        super().__init__([])

    def op(self):
        time.sleep(0.05)
        return 0


class TestHostProbe:
    def test_probe_runs_during_untraced_ops_only(self):
        before = signal.getsignal(signal.SIGALRM)
        res = worker.measure(_Spin(0.3), 0.0, trace=False)
        assert res["host_scale"] > 0 and res["failures"] == [] and len(res["op_scales"]) == 1
        # the probe's own time is taken out of the operation
        assert 0.3 - 0.1 < res["wall_s"][0] <= 0.3 + 0.01
        assert signal.getsignal(signal.SIGALRM) == before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert worker.measure(_Spin(0.1), 0.0, trace=True)["host_scale"] is None

    def test_busy_between_and_scale(self):
        probe = hostprobe.HostProbe()
        probe.samples = [(1.0, 0.004, 0.002), (2.0, 0.002, 0.001), (3.0, 0.006, 0.003)]
        assert probe.busy_between(1.5, 3.0) == 0.002
        assert probe.scale() == pytest.approx(0.002 / hostprobe.REFERENCE_S)
        assert probe.scale_between(1.5, 3.5) == pytest.approx(0.002 / hostprobe.REFERENCE_S)
        assert probe.scale_between(3.5, 4.0) is None

    def test_op_without_probe_run_gets_run_scale(self):
        res = worker.measure(_Spin(0.01), 0.25, trace=False)
        assert res["op_scales"] and None not in res["op_scales"] and res["host_scale"] in res["op_scales"]


class TestTracing:
    def test_unattributed_time_fails(self):
        res = worker.measure(_Sleep(), 0.0, trace=True)
        assert res["attempted"] == 2 and [f["traced"] for f in res["failures"]] == [True]
        assert "cli.self_s" in res["failures"][0]["problems"][0]

    def test_self_times_account_for_root(self):
        tracer = Tracer()
        leaf = tracer.wrap("leaf", lambda: sum(range(10_000)))
        mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
        tracer.wrap("root", lambda: (mid(), leaf()))()
        self_s = tracer.self_times()
        _, start, end, parent = tracer.spans[0]
        assert parent is None and tracer.counts["leaf.calls"] == 3
        assert sum(self_s.values()) == pytest.approx(end - start, rel=1e-9)
        assert all(v >= 0.0 for v in self_s.values())

    def test_patched_restores_on_error(self):
        original = eat.leak_ec
        with pytest.raises(ZeroDivisionError):
            with Tracer().patched([Target(eat, "leak_ec", "eat.leak_ec")]):
                assert eat.leak_ec is not original
                raise ZeroDivisionError
        assert eat.leak_ec is original

    def test_traced_pipeline_reproduces_report_and_counts(self):
        n = 20_000
        config = cli.load_config(None, {"security.method": "eat", "protocol.n": str(n), "seed": "7"})
        plain = cli.run_pipeline(config).to_json()
        tracer = Tracer()
        originals = {t.attr: getattr(t.module, t.attr) for t in workloads.TARGETS}
        with tracer.patched(workloads.TARGETS):
            traced = tracer.wrap("cli.run_pipeline", cli.run_pipeline)(config).to_json()
        assert {t.attr: getattr(t.module, t.attr) for t in workloads.TARGETS} == originals
        assert traced == plain
        layers = worker.layer_metrics(tracer, "cli.run_pipeline", 5 * n)
        assert set(layers) | {"trace_overhead_s", "renyi_rate", "eat_rate"} == set(run.PER_LAYER)
        assert layers["eat.delta_for_completeness_calls"] == 2
        assert layers["renyi.acceptance_box_calls"] == 1
        assert layers["protocol.transcript_bytes"] == 14 * n
        _, start, end, _ = tracer.spans[0]
        assert worker.attribution_problems(layers, end - start) == []
        assert protocol.sift is originals["sift"]


class TestHarness:
    def test_fails_without_sources(self, tmp_path):
        shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "extract", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0 and "{" not in proc.stdout

    def test_tail_percentile(self):
        assert run.tail_percentile(list(range(19))) is None
        assert run.tail_percentile(list(range(20))) == (50.0, 9)
        assert run.tail_percentile(list(range(1, 101))) == (90.0, 90)
