"""Benchmark: scheduler hot-path wall time vs cluster size.

Sweeps uniform clusters (8-GPU nodes) under the same fixed-load workload as
F10 — a 2-day tacc-campus trace synthesised at 0.9 load per size — and
records trace generation time (load calibration, synthesis and model
assignment), simulator wall time and the :class:`repro.perf.PerfCounters`
scheduler-pass telemetry for each size.  At full scale the sweep reaches
32k GPUs; a separate fleet benchmark replays a month-long ~1M-job trace
(vectorized synthesis) against the 32k-GPU cluster.

Results are appended to ``BENCH_hotpath.json`` at the repo root as a
*trajectory*: the checked-in file carries the pre-index baseline rows, the
rows measured when the incremental cluster index landed, and the rows from
the calendar-queue/incremental-backfill rework; each run of this benchmark
replaces the ``latest`` (and ``fleet-latest``) entry, stamped with the
UTC date, the git commit and the CPU count, so regressions against the
recorded trajectory are visible in the diff.

At ``--repro-scale`` < 1.0 the sweep stops at 256 GPUs (CI smoke); at full
scale it reaches 32768 GPUs.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from repro.cluster.cluster import uniform_cluster
from repro.experiments.common import run_policy
from repro.sched import make_scheduler
from repro.sim import SimConfig
from repro.workload.fleet import fleet_trace
from repro.workload.models import assign_models
from repro.workload.synth import (
    DurationModel,
    TraceSynthesizer,
    tacc_campus,
    with_load,
)

BENCH_PATH = Path(__file__).parent.parent / "BENCH_hotpath.json"
FULL_NODE_COUNTS = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
SMOKE_NODE_COUNTS = [4, 8, 16, 32]

FLEET_NODES = 4096  # 32768 GPUs
FLEET_DAYS = 30.0


def run_hotpath_sweep(node_counts: list[int], seed: int) -> list[dict]:
    """One row per cluster size: trace generation and simulator wall time,
    plus the scheduler-pass perf counters."""
    rows = []
    for nodes in node_counts:
        cluster = uniform_cluster(nodes, gpus_per_node=8)
        started = time.perf_counter()
        config = with_load(
            tacc_campus(days=2.0), cluster.total_gpus, 0.9, seed=seed + nodes
        )
        trace = TraceSynthesizer(config, seed=seed + nodes).generate()
        assign_models(trace, seed=seed)
        trace_gen_s = time.perf_counter() - started
        scheduler = make_scheduler("backfill-easy")
        started = time.perf_counter()
        result = run_policy(scheduler, trace, cluster=cluster)
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "gpus": nodes * 8,
                "jobs": len(trace),
                "events": result.events_processed,
                "trace_gen_s": round(trace_gen_s, 6),
                "sim_wall_s": round(elapsed, 6),
                "perf": {
                    key: round(value, 6)
                    for key, value in result.perf.as_dict().items()
                },
            }
        )
    return rows


def fleet_month_config(seed: int):
    """Month-long fleet mix calibrated to ~1M jobs on 32k GPUs.

    The campus duration mix at 0.95 load would put a month on 32k GPUs at
    ~600k jobs; fleet-scale clusters skew shorter per job at much higher
    volume, so the medians are scaled to 0.65x, which calibrates to ~33k
    jobs/day (~1M over the month) at the same offered load.
    """
    base = tacc_campus(days=FLEET_DAYS, name="tacc-fleet")
    duration = DurationModel(
        median_minutes={
            gpus: minutes * 0.65
            for gpus, minutes in base.duration.median_minutes.items()
        },
        sigma=base.duration.sigma,
    )
    return with_load(
        replace(base, duration=duration), FLEET_NODES * 8, 0.95, seed=seed
    )


def run_fleet_month(seed: int) -> dict:
    """The 32k-GPU ~1M-job month: vectorized synthesis + lean simulation."""
    started = time.perf_counter()
    config = fleet_month_config(seed)
    trace = fleet_trace(config, seed=seed)
    assign_models(trace, seed=seed)
    trace_gen_s = time.perf_counter() - started

    cluster = uniform_cluster(FLEET_NODES, gpus_per_node=8)
    scheduler = make_scheduler("backfill-easy")
    started = time.perf_counter()
    result = run_policy(
        scheduler,
        trace,
        cluster=cluster,
        sim_config=SimConfig(
            sample_interval_s=3600.0,
            record_transitions=False,
        ),
    )
    sim_wall_s = time.perf_counter() - started
    return {
        "gpus": FLEET_NODES * 8,
        "jobs": len(trace),
        "days": FLEET_DAYS,
        "events": result.events_processed,
        "trace_gen_s": round(trace_gen_s, 3),
        "sim_wall_s": round(sim_wall_s, 3),
        "jobs_completed": result.metrics.jobs_completed,
        "avg_utilization": round(result.metrics.avg_utilization, 4),
        "perf": {
            key: round(value, 6) for key, value in result.perf.as_dict().items()
        },
    }


def _git_sha() -> str | None:
    """The checked-out commit, or ``None`` outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=BENCH_PATH.parent,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def update_trajectory(rows: list[dict], seed: int, label: str = "latest") -> None:
    """Replace the *label* entry of the BENCH_hotpath.json trajectory."""
    doc = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {
        "benchmark": "scheduler hot path",
        "trajectory": [],
    }
    doc["trajectory"] = [
        entry for entry in doc["trajectory"] if entry.get("label") != label
    ]
    doc["trajectory"].append(
        {
            "label": label,
            "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "git_sha": _git_sha(),
            "cpus": os.cpu_count(),
            "seed": seed,
            "rows": rows,
        }
    )
    BENCH_PATH.write_text(json.dumps(doc, indent=1) + "\n")


def test_perf_hotpath(request, benchmark, capsys):
    scale = float(request.config.getoption("--repro-scale"))
    seed = int(request.config.getoption("--repro-seed"))
    node_counts = FULL_NODE_COUNTS if scale >= 1.0 else SMOKE_NODE_COUNTS

    rows = benchmark.pedantic(
        lambda: run_hotpath_sweep(node_counts, seed), rounds=1, iterations=1
    )
    update_trajectory(rows, seed)

    with capsys.disabled():
        print("\n  gpus  trace_s  wall_s    attempts  nodes/attempt  blocked-hit%")
        for row in rows:
            perf = row["perf"]
            print(
                f"  {row['gpus']:>5} {row['trace_gen_s']:>8.4f} {row['sim_wall_s']:>8.4f}"
                f" {perf['placement_attempts']:>9.0f}"
                f" {perf['nodes_per_attempt']:>13.2f}"
                f" {perf.get('blocked_cache_hit_rate', 0.0):>12.0%}"
            )
    assert rows
    # The index keeps per-attempt scan cost far below cluster size: on the
    # largest swept cluster, a placement attempt must touch only a small
    # fraction of the nodes (the pre-index scan examined most of them).
    largest = rows[-1]
    if largest["perf"]["placement_attempts"]:
        assert largest["perf"]["nodes_per_attempt"] < largest["gpus"] / 8 / 2


def test_perf_fleet_month(request, benchmark, capsys):
    """32k GPUs, ~1M jobs, one month — must finish in single-digit minutes."""
    scale = float(request.config.getoption("--repro-scale"))
    seed = int(request.config.getoption("--repro-seed"))
    if scale < 1.0:
        import pytest

        pytest.skip("fleet month runs at --repro-scale 1.0 only")

    row = benchmark.pedantic(lambda: run_fleet_month(seed), rounds=1, iterations=1)
    update_trajectory([row], seed, label="fleet-latest")

    with capsys.disabled():
        print(
            f"\n  fleet: {row['jobs']:,} jobs on {row['gpus']:,} GPUs over"
            f" {row['days']:.0f} days — trace {row['trace_gen_s']:.1f}s,"
            f" sim {row['sim_wall_s']:.1f}s,"
            f" util {row['avg_utilization']:.0%}"
        )
    assert row["jobs"] > 700_000
    assert row["sim_wall_s"] < 600.0
