"""One benchmark process: set up diqkd, then run one workload for a time budget.

Prints ``ready`` as soon as the imports and ``load_config`` are done (the
set-up a command-line user pays on every call), then ``setup-probe <busy
seconds> <scale>`` from the host probe that ran during the set-up, then
one JSON line with every sample.  run.py starts this script; with
``--setup-only`` it exits after the probe line.
"""

from __future__ import annotations

import sys

from hostprobe import LOOP_REFERENCE_S, SETUP_INTERVAL_S, HostProbe, loop_kernel

# Started before the imports below, which are most of the set-up it scales.
SETUP_PROBE = HostProbe(loop_kernel, LOOP_REFERENCE_S, SETUP_INTERVAL_S)
if __name__ == "__main__":
    SETUP_PROBE.start()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports diqkd from this checkout)
from diqkd import cli, rng  # noqa: E402
from spans import Tracer  # noqa: E402

TIME_LAYERS = tuple(dict.fromkeys(t.span for t in workloads.TARGETS))
COUNT_LAYERS = ("renyi.h_alpha", "renyi.acceptance_box", "eat.leak_ec", "eat.delta_for_completeness")
MAX_UNATTRIBUTED = 0.05  # share of a traced operation's wall time left in cli.self_s


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, root: str, draws: int) -> dict[str, float]:
    """Per-layer self seconds and counts of one traced operation."""
    self_s = tracer.self_times()
    out = {f"{name}_s": self_s.get(name, 0.0) for name in TIME_LAYERS}
    out["cli.self_s"] = self_s[root]
    out.update({f"{name}_calls": tracer.counts[name + ".calls"] for name in COUNT_LAYERS})
    out["protocol.transcript_bytes"] = tracer.counts["protocol.generate.bytes"] + tracer.counts["protocol.sift.bytes"]
    out["rng.draws"] = draws
    return out


def attribution_problems(layers: dict[str, float], wall: float) -> list[str]:
    """Fail a traced operation that spends over MAX_UNATTRIBUTED of its time outside the wrapped layers."""
    if layers["cli.self_s"] > MAX_UNATTRIBUTED * wall:
        return [f"cli.self_s = {layers['cli.self_s']:.6g} s is over {MAX_UNATTRIBUTED:.0%} of the traced wall {wall:.6g} s"]
    return []


def run_once(wl, tracer, probe):
    """(output, wall seconds, rng draws, host scale or None) of one operation,
    traced if a tracer is given.

    Seconds the host probe ran during the operation are not counted; the
    scale is the probe's over the operation (None if it ran no kernel then).
    """
    before = rng.audit_total()
    scale = None
    if tracer is None:
        start = time.perf_counter()
        out = wl.op()
        end = time.perf_counter()
        wall = end - start
        if probe:
            wall -= probe.busy_between(start, end)
            scale = probe.scale_between(start, end)
    else:
        with tracer.patched(workloads.TARGETS):
            out = tracer.wrap(wl.root, wl.op)()
        _, start, end, _ = tracer.spans[0]
        wall = end - start
    return out, wall, rng.audit_total() - before, scale


def measure(wl, seconds: float, trace: bool) -> dict:
    """Run operations until the budget is spent; with trace, untraced/traced pairs.

    Untraced-only runs also sample the host speed (see hostprobe): each
    operation gets the scale measured while it ran, or the run's scale if
    the probe ran no kernel during it.
    """
    probe = None if trace else HostProbe()
    with probe.running() if probe else contextlib.nullcontext():
        res = _loop(wl, seconds, trace, probe)
    res["host_scale"] = probe.scale() if probe and probe.samples else None
    res["op_scales"] = [res["host_scale"] if k is None else k for k in res["op_scales"]]
    return res


def _loop(wl, seconds: float, trace: bool, probe) -> dict:
    res = {"attempted": 0, "failures": [], "wall_s": [], "traced_wall_s": [], "op_scales": [], "layers": [], "spans": [], "rates": None}
    reference = None
    deadline = time.perf_counter() + seconds
    while True:
        for traced in (False, True) if trace else (False,):
            index = res["attempted"]
            res["attempted"] += 1
            tracer = Tracer() if traced else None
            try:
                out, wall, draws, scale = run_once(wl, tracer, probe)
                problems = wl.check(out, draws)
                blob = wl.report(out)
                rates = wl.rates(out)
            except Exception as exc:  # a failed operation is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                res["failures"].append({"op": index, "traced": traced, "problems": [repr(exc)]})
                continue
            reference = blob if reference is None else reference
            if blob != reference:
                problems.append("report bytes differ from the first operation's")
            if traced:
                layers = layer_metrics(tracer, wl.root, draws)
                problems += attribution_problems(layers, wall)
                res["layers"].append(layers)
                res["spans"].append([(index, *span) for span in tracer.spans])
            if problems:
                res["failures"].append({"op": index, "traced": traced, "problems": problems})
                continue
            res["traced_wall_s" if traced else "wall_s"].append(wall)
            if not traced:
                res["op_scales"].append(scale)
            res["rates"] = rates
        if time.perf_counter() >= deadline:
            return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    config = cli.load_config(None, workloads.config_overrides(args.workload, args.seed))
    SETUP_PROBE.stop()
    print("ready", flush=True)
    print(f"setup-probe {SETUP_PROBE.busy()!r} {SETUP_PROBE.scale()!r}", flush=True)
    if args.setup_only:
        return 0

    import numpy
    import scipy

    rss = {"setup": max_rss_mb()}
    wl = workloads.prepare(args.workload, config, args.seed)
    rss["prepared"] = max_rss_mb()
    res = measure(wl, args.seconds, bool(args.trace))
    res["peak_rss_mb"] = max_rss_mb()
    res["max_rss_mb_before_ops"] = rss
    res["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
