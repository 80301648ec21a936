"""Benchmark entry point: run one workload, check it, report its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campus-contended --seed 0 --seconds 40 --trace 0

A workload is a batch of independent replays drawn from the seed, split
into equal slices.  Each slice runs in a fresh ``child.py`` process,
started only after the previous one has exited.  ``--trace 0`` runs
rounds of every slice, the workload's minimum and more while another
round fits in ``--seconds``, and reports the end-to-end metrics: time
metrics are batch totals of each replay's fastest time over the rounds;
``setup_s`` and ``peak_rss_mb`` are medians over all processes.
``--trace 1`` alternates untraced and traced runs of the first slice and
reports the median per-layer split plus the tracing overhead.  Every
time is host time rescaled to a reference host speed by samples of a
fixed probe loop taken while each process works (``hostspeed.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run with its provenance (date, commit, host, versions) is written under
``.perfbench/results/``; a traced run also writes a Chrome trace-event
file under ``.perfbench/traces/`` that opens in Perfetto.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from hostspeed import probe_s  # noqa: E402

#: Host samples the parent takes just before each spawn.
PARENT_SAMPLES = 5
from workloads import SIZES, WORKLOADS  # noqa: E402

#: Whole-process budget; a run must end well inside three minutes.
BUDGET_S = 170.0


def load_json(path: Path) -> dict[str, Any]:
    return json.loads(path.read_text())


def provenance(workload: str, seed: int, size: str, runs: list[dict[str, Any]]) -> dict[str, Any]:
    """Where and when a result was measured."""
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=20, check=True,
            ).stdout.strip()
            dirty = bool(
                subprocess.run(
                    ["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
                    capture_output=True, text=True, timeout=20, check=True,
                ).stdout.strip()
            )
        except (OSError, subprocess.SubprocessError):
            sha, dirty = None, None
    return {
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": sha,
        "src_dirty": dirty,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": runs[0].get("numpy_version") if runs else None,
        "host": platform.node(),
        "workload": workload,
        "seed": seed,
        "size": size,
    }


def spawn(
    workload: str, seed: int, size: str, slice_index: int, traced: bool, index: int,
    deadline: float, trace_out: Path | None,
) -> tuple[dict[str, Any] | None, str]:
    """Run one child to completion; its report, or ``None`` and why not."""
    scratch = OUT / "tmp" / f"{os.getpid()}-{index}"
    scratch.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--slice", str(slice_index), "--scratch", str(scratch),
    ]
    if traced:
        command.append("--traced")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        samples = []
        for _ in range(PARENT_SAMPLES):
            start = time.perf_counter()
            samples.append(f"{start!r}:{probe_s()!r}")
        spawned_at = time.perf_counter()
        done = subprocess.run(
            command + ["--spawned-at", repr(spawned_at), "--host-samples", ",".join(samples)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, f"run {index} timed out after {timeout:.0f}s"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-5:]
        return None, f"run {index} exited {done.returncode}: {' | '.join(tail)}"
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, f"run {index} printed no report"


def total(runs: list[dict[str, Any]], field: str) -> float:
    return sum(op[field] for run in runs for op in run["ops"])


def end_to_end(rounds: list[list[dict[str, Any]]]) -> dict[str, float]:
    """The end-to-end metrics of complete untraced rounds of one seed.

    Each replay's (and each process start's) fastest time over the rounds
    is summed over the batch.  Rescaling removes most host interference;
    what the host-speed samples miss (a neighbour contending for the
    shared cache slows the fleet replays, not the probe loop) only ever
    adds time, so the fastest round of each replay is the steadiest.
    """
    processes = [run["process"] for runs in rounds for run in runs]
    slices = range(len(rounds[0]))

    def batch(field: str) -> float:
        return sum(
            min(runs[s]["ops"][i][field] for runs in rounds)
            for s in slices
            for i in range(len(rounds[0][s]["ops"]))
        )

    start_s = sum(min(runs[s]["process"]["start_s"] for runs in rounds) for s in slices)
    sim_wall_s = batch("sim_wall_s")
    return {
        "setup_s": statistics.median(p["setup_s"] for p in processes),
        "trace_gen_s": batch("trace_gen_s"),
        "sim_wall_s": sim_wall_s,
        "e2e_s": start_s + batch("wall_s"),
        "events_per_s": batch("events") / sim_wall_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in processes),
    }


def per_layer(report: dict[str, Any], untraced: list[dict[str, Any]]) -> dict[str, float]:
    """A traced run's layer split plus its overhead over the untraced runs."""
    values = dict(report["layers"])
    base = statistics.median(total([run], "sim_wall_s") for run in untraced)
    values["tracing_overhead_ratio"] = total([report], "sim_wall_s") / base
    return values


def medians(rows: list[dict[str, float]], specs: list[dict[str, Any]]) -> dict[str, Any]:
    return {
        spec["name"]: {
            "value": statistics.median(row[spec["name"]] for row in rows),
            "unit": spec["unit"],
        }
        for spec in specs
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    started = time.perf_counter()
    deadline = started + BUDGET_S
    traced_mode = bool(args.trace)
    size = SIZES[args.workload][args.size]
    slices = size["slices"]
    # One round: every slice once, or an untraced/traced pair of slice 0.
    plan = [(0, False), (0, True)] if traced_mode else [(i, False) for i in range(slices)]
    min_rounds = 1 if traced_mode else size["rounds"]
    rounds: list[list[dict[str, Any]]] = []
    problems: list[str] = []
    attempted = failed = 0
    trace_file = OUT / "traces" / f"{args.workload}-seed{args.seed}.trace.json"
    index = 0
    round_s = 0.0
    while not problems and (
        len(rounds) < min_rounds or time.perf_counter() - started + round_s <= args.seconds
    ):
        round_started = time.perf_counter()
        reports: list[dict[str, Any]] = []
        for slice_index, as_traced in plan:
            report, error = spawn(
                args.workload, args.seed, args.size, slice_index, as_traced, index, deadline,
                trace_file if as_traced and not rounds else None,
            )
            index += 1
            if report is None:
                problems.append(error)
                attempted += 1
                failed += 1
                break
            reports.append(report)
            attempted += report["operations"]
            failed += report["failed_operations"]
            problems.extend(f"run {index - 1}: {p}" for p in report["problems"])
        rounds.append(reports)
        round_s = time.perf_counter() - round_started
    runs = [run for reports in rounds for run in reports]

    for slice_index in range(slices):
        of_slice = [r for r in runs if r["slice_index"] == slice_index]
        if len({r["digest"] for r in of_slice}) > 1:
            problems.append(f"runs of slice {slice_index} disagree on the output digest")
        if len({tuple(op["events"] for op in r["ops"]) for r in of_slice}) > 1:
            problems.append(f"runs of slice {slice_index} dispatched different numbers of events")
    expected = load_json(HERE / "references.json")["digests"].get(str(args.seed), {})
    reference = expected.get(args.workload) if args.size == "full" else None
    if reference is not None:
        for run in runs:
            if run["digest"] != reference[run["slice_index"]]:
                problems.append(
                    f"slice {run['slice_index']} digest {run['digest']} != reference"
                    f" {reference[run['slice_index']]} for seed {args.seed}"
                )
                break
    if not runs:
        attempted = max(attempted, 1)
    if problems and failed == 0:
        # A wrong or unstable digest fails every operation of the call.
        failed = attempted

    spec = load_json(ROOT / "BENCHMARK.json")
    complete = [reports for reports in rounds if len(reports) == len(plan)]
    metrics: dict[str, Any] = {}
    if traced_mode and complete:
        untraced = [reports[0] for reports in complete]
        metrics = medians([per_layer(reports[1], untraced) for reports in complete], spec["per_layer"])
    elif complete and not traced_mode:
        values = end_to_end(complete)
        metrics = {
            item["name"]: {"value": values[item["name"]], "unit": item["unit"]}
            for item in spec["end_to_end"]
        }
    result = {
        "correct": not problems and failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "provenance": provenance(args.workload, args.seed, args.size, runs),
        "seconds": args.seconds,
        "trace": args.trace,
        "problems": problems,
        "result": result,
        "runs": [
            {k: r[k] for k in ("slice_index", "traced", "digest", "process", "ops", "host", "layers")}
            for r in runs
        ],
    }
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    record_path = OUT / "results" / f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{len(runs)} runs in {time.perf_counter() - started:.1f}s; record {record_path}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
