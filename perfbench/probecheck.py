"""Does the host probe read the same beside a workload as beside no program code?

    python3 perfbench/probecheck.py --workload extract --pairs 4 --seconds 4

wall_s is divided by the scale of the probe that runs beside the
workload's operations (hostprobe.py).  That is sound only if the
program's code does not itself move the probe's time.  This script
alternates, in one process, blocks of the workload's operations and
blocks of equal length of a busy loop that runs none of diqkd (ABBA
order, so a steady drift of the host cancels), with the probe running
in both.  It prints the probe's median in each block and, over the
pairs, the median ratio beside-workload / beside-loop.  Outputs are not
checked here; run.py does that.
"""

from __future__ import annotations

import argparse
import statistics
import time

import worker  # noqa: F401  (puts this checkout's diqkd on the path)
import workloads
from diqkd import cli
from hostprobe import HostProbe
from run import WORKLOADS


def block(run) -> float:
    """Median probe time (s) while run() runs."""
    probe = HostProbe()
    with probe.running():
        run()
    return probe.median_s()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args(argv)
    config = cli.load_config(None, workloads.config_overrides(args.workload, args.seed))
    wl = workloads.prepare(args.workload, config, args.seed)
    length = args.seconds

    def ops():
        nonlocal length
        start = time.perf_counter()
        while True:
            wl.op()
            if time.perf_counter() - start >= args.seconds:
                break
        length = time.perf_counter() - start

    def spin():
        end = time.perf_counter() + length
        while time.perf_counter() < end:
            pass

    ratios = []
    for pair in range(args.pairs):
        if pair % 2 == 0:
            beside_ops = block(ops)
            beside_spin = block(spin)
        else:
            beside_spin = block(spin)
            beside_ops = block(ops)
        ratios.append(beside_ops / beside_spin)
        print(f"pair {pair}: probe {beside_ops * 1e3:.4f} ms beside {args.workload}, "
              f"{beside_spin * 1e3:.4f} ms beside the loop, ratio {ratios[-1]:.4f}", flush=True)
    low, high = min(ratios), max(ratios)
    print(f"{args.workload}: median ratio {statistics.median(ratios):.4f} (range {low:.4f}-{high:.4f}, {args.pairs} pairs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
