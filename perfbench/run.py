"""Benchmark of diqkd: one workload per call, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload analytic-11km --seed 7 --seconds 15 --trace 0

With --trace 0, set-up time is sampled in fresh interpreters
(SETUP_SAMPLES of them, counting the measuring process), then one worker
process runs the workload for --seconds and checks every output.  The
end-to-end metrics divide each time by a host scale (hostprobe.py): each
set-up by the scale its own interpreter sampled during it, each
operation by the scale sampled while it ran.  --trace 1 starts the
worker only, runs untraced/traced pairs and reports per-layer self times
(unscaled) and counts.  Metric names and units come from BENCHMARK.json.
The last line of standard output is one JSON object; a record of the
run, spans included, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0  # the whole call, set-up included
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKERS_ENV = "DIQKD_WORKERS"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(RuntimeError):
    pass


def tail_percentile(samples: list[float]):
    """(p, value) for the highest listed percentile with >= 10 samples above it, else None."""
    ordered = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(len(ordered) * p / 100)  # nearest rank, 1-based
        if rank >= 1 and len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


def spawn(args: argparse.Namespace, env: dict, deadline: float, setup_only: bool):
    """Start a worker; return (seconds until it printed ready, seconds its probe
    ran in them, the host scale the probe gave, its JSON result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        if first.strip() != "ready":
            raise BenchError(f"worker did not get ready: {first!r}")
        probe = proc.stdout.readline().split()
        if len(probe) != 3 or probe[0] != "setup-probe":
            raise BenchError(f"worker did not report its set-up probe: {probe!r}")
        busy, scale = float(probe[1]), float(probe[2])
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker ran past the time limit") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return ready, busy, scale, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="diqkd benchmark (one workload per call)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S
    if not (ROOT / "src" / "diqkd" / "__init__.py").is_file():
        print(f"no diqkd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    workers_was = env.pop(WORKERS_ENV, None)
    try:
        setup = [spawn(args, env, deadline, True)[:3] for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        ready, busy, scale, res = spawn(args, env, deadline, False)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setup.append((ready, busy, scale))
    setup_scaled = [(t - busy) / k for t, busy, k in setup]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            **res["versions"],
            **{k: os.environ.get(k) for k in THREAD_ENV},
            WORKERS_ENV: f"cleared (was {workers_was!r})",
        },
        "setup_s": [{"seconds": t, "probe_s": busy, "host_scale": k} for t, busy, k in setup],
        **{k: res[k] for k in ("attempted", "failures", "wall_s", "traced_wall_s", "host_scale", "op_scales", "peak_rss_mb",
                               "max_rss_mb_before_ops", "rates")},
    }
    walls = res["wall_s"]
    rates = res["rates"] or {}
    if args.trace:
        traced = res["traced_wall_s"]
        layers = res["layers"]
        metrics = {k: statistics.median_low(row[k] for row in layers) for k in (layers[0] if layers else ())}
        metrics.update({k: rates[k] for k in ("renyi_rate", "eat_rate") if k in rates})
        if walls and traced:
            metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(walls)
        units = PER_LAYER
        record["layers"] = layers
        record["spans"] = res["spans"]
    else:
        metrics = {"setup_s": statistics.median(setup_scaled), "peak_rss_mb": res["peak_rss_mb"]}
        if walls:
            metrics["wall_s"] = statistics.median(w / k for w, k in zip(walls, res["op_scales"]))
        if "key_rate" in rates:
            metrics["key_rate"] = rates["key_rate"]
        units = END_TO_END

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    failed = len(res["failures"])
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for failure in res["failures"]:
        print(f"FAILED op {failure['op']} (traced {failure['traced']}): {'; '.join(failure['problems'])}")
    print(f"error_rate = {failed}/{res['attempted']} operations")
    print(f"wall_s samples = {len(walls)}, setup_s samples = {len(setup)}")
    print(f"unscaled: setup_s = {statistics.median(t - busy for t, busy, _ in setup):.6g} s"
          + (f", wall_s = {statistics.median(walls):.6g} s" if walls else ""))
    print(f"host scale during set-up = {statistics.median(k for _, _, k in setup):.4f}"
          + (f", median during operations = {res['host_scale']:.4f}" if res["host_scale"] is not None else ""))
    rss = res["max_rss_mb_before_ops"]
    print(f"max RSS: {rss['setup']:.1f} MB after set-up, {rss['prepared']:.1f} MB with inputs and references, "
          f"{res['peak_rss_mb']:.1f} MB after the operations")
    tail = tail_percentile(walls)
    if tail is not None:
        print(f"wall_s p{tail[0]:g} = {tail[1]:.6f} s unscaled (informational)")
    for key in units:
        if key in metrics:
            print(f"{key} = {metrics[key]:.6g} {units[key]}")
    print(f"record written to {out_dir.relative_to(ROOT) / name}")
    print(json.dumps({
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
