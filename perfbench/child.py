"""One benchmark run in a fresh process; prints a JSON report as its last line.

``run.py`` starts this script once per measured run, one at a time, so
peak memory (``ru_maxrss``) and the sweep engine's process-wide state
never carry over from an earlier run::

    python3 perfbench/child.py --workload fleet-32k --seed 0 --size full --slice 0 \\
        --scratch <empty directory> --spawned-at <perf_counter value just before the spawn> \\
        --host-samples <start:probe seconds,... the parent sampled just before the spawn>
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--slice", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--host-samples", required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    # set-up time spans two processes, so both must read the same clock.
    if "CLOCK_MONOTONIC" not in time.get_clock_info("perf_counter").implementation:
        print("perf_counter is not CLOCK_MONOTONIC; cannot time set-up", file=sys.stderr)
        return 2
    from hostspeed import HostSampler

    earlier = [tuple(map(float, item.split(":"))) for item in args.host_samples.split(",")]
    # Sample from here on, so that imports are rescaled too; traced runs
    # sample only between operations, so that no span holds a sample.
    with HostSampler(periodic=not args.traced, earlier=earlier) as host:
        sys.path.insert(0, str(ROOT / "src"))
        from workloads import run_child

        report = run_child(
            args.workload,
            args.seed,
            args.size,
            args.traced,
            args.spawned_at,
            host,
            args.scratch,
            args.slice,
            args.trace_out,
        )
    print(json.dumps(asdict(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
