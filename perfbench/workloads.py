"""The benchmark's workloads: inputs from a seed, one run, measurements.

Every workload runs in a fresh child process (see ``child.py``) and
returns a :class:`ChildReport`: host timings per operation, an output
digest, checks that failed, and — when traced — the per-layer split.
Simulated results are deterministic, so the digest of a (workload, seed,
size) triple never changes unless the program's behaviour does; only host
time and memory vary between runs.

Workloads (the README gives the reasons behind each):

* ``campus-contended`` — a batch of short, contended campus replays on the
  176-GPU heterogeneous TACC cluster under EASY backfill, run as sweep
  cells: cold into an empty cache directory, then warm from it.
* ``fleet-32k`` — a batch of vectorized fleet-mix replays on 4096 x 8
  uniform GPUs, driven directly through ``ClusterSimulator``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from hostspeed import HostSampler
from tracer import UNATTRIBUTED, SpanTable, Tracer, layer_sum_check, layer_totals

#: Per-workload input sizes.  ``full`` is what the benchmark measures;
#: ``tiny`` exists for the smoke tests.  A call's batch of ``episodes``
#: replays is split into ``slices`` equal runs, each a fresh process, and
#: replayed in at least ``rounds`` rounds (more while time allows): the
#: fleet batch is small enough to repeat, and a replay's fastest of three
#: rounds drops a slowdown the host-speed samples missed.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "campus-contended": {
        "full": {"episodes": 144, "days": 2.0, "slices": 3, "rounds": 1},
        "tiny": {"episodes": 2, "days": 1.0, "slices": 2, "rounds": 1},
    },
    "fleet-32k": {
        "full": {"episodes": 3, "nodes": 4096, "days": 0.5, "slices": 3, "rounds": 3},
        "tiny": {"episodes": 2, "nodes": 64, "days": 0.25, "slices": 2, "rounds": 2},
    },
}

WORKLOADS = tuple(SIZES)

#: Offered load of the contended campus batch.
CAMPUS_LOAD = 1.5
#: Seed of the load calibration.  Fixed, so every seed's batch offers the
#: same job rate and only the synthesized jobs differ.
CALIBRATION_SEED = 777
#: Fleet mix: campus medians scaled to 0.65x at 0.95 load (the fleet-month
#: calibration used by the hot-path benchmark).
FLEET_MEDIAN_SCALE = 0.65
FLEET_LOAD = 0.95

#: Relative tolerance of the layer-sum check.
LAYER_SUM_TOLERANCE = 0.01
#: Spans written to the Chrome trace (the aggregates use every span).
MAX_TRACE_SPANS = 50_000


@dataclass
class ChildReport:
    """What one child process measured and checked."""

    workload: str
    seed: int
    size: str
    traced: bool
    #: Which slice of the seed's batch this run replayed.
    slice_index: int = 0
    operations: int = 0
    failed_operations: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    #: Whole-process measurements: ``start_s`` (spawn to the first
    #: operation), ``setup_s``, ``peak_rss_mb``.
    process: dict[str, float] = field(default_factory=dict)
    #: Per operation: ``trace_gen_s``, ``sim_wall_s``, ``wall_s`` (and
    #: ``warm_s``, its warm-cache replay, on the campus batch), dispatched
    #: ``events`` and the mean host ``speed`` over the operation.  Times in
    #: ``process`` and ``ops`` are rescaled to the reference host speed (see
    #: ``hostspeed.py``); ``warm_s`` and the layers are not.
    ops: list[dict[str, float]] = field(default_factory=list)
    #: Host-speed samples of the run: count and probe times.
    host: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    numpy_version: str = np.__version__


def canonical_digest(value: Any) -> str:
    """sha256 of canonical JSON (sorted keys, no whitespace)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _PerfTotals:
    """Sums the program's own ``PerfCounters`` over every simulator run."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.peak_pending = 0.0

    def add(self, perf: dict[str, float]) -> None:
        for key, value in perf.items():
            self.totals[key] = self.totals.get(key, 0.0) + value
        self.peak_pending = max(self.peak_pending, perf.get("peak_pending_events", 0.0))

    def ratio(self, numerator: str, denominator: str) -> float:
        base = self.totals.get(denominator, 0.0)
        return self.totals.get(numerator, 0.0) / base if base else 0.0


# -- replay workloads ----------------------------------------------------------


def episode_seeds(seed: int, episodes: int) -> list[int]:
    """One synthesis seed per episode, all drawn from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(episodes)]


def slice_seeds(seed: int, params: dict[str, Any], index: int) -> list[int]:
    """The episode seeds of slice *index* of the seed's batch."""
    per_slice = params["episodes"] // params["slices"]
    return episode_seeds(seed, params["episodes"])[index * per_slice : (index + 1) * per_slice]


def campus_config(days: float) -> Any:
    from repro.workload.synth import tacc_campus, with_load

    return with_load(tacc_campus(days=days), 176, CAMPUS_LOAD, seed=CALIBRATION_SEED)


def fleet_config(days: float, nodes: int) -> Any:
    from repro.workload.synth import DurationModel, tacc_campus, with_load

    base = tacc_campus(days=days, name="tacc-fleet")
    duration = DurationModel(
        median_minutes={
            gpus: minutes * FLEET_MEDIAN_SCALE
            for gpus, minutes in base.duration.median_minutes.items()
        },
        sigma=base.duration.sigma,
    )
    return with_load(
        replace(base, duration=duration), nodes * 8, FLEET_LOAD, seed=CALIBRATION_SEED
    )


def _fleet_simulator(nodes: int, trace: Any) -> Any:
    from repro.cluster.cluster import uniform_cluster
    from repro.execlayer.speedup import ExecutionModel
    from repro.sched import make_scheduler
    from repro.sim.simulator import ClusterSimulator, SimConfig

    return ClusterSimulator(
        uniform_cluster(nodes, gpus_per_node=8),
        make_scheduler("backfill-easy"),
        trace,
        exec_model=ExecutionModel(),
        config=SimConfig(sample_interval_s=3600.0, record_transitions=False),
    )


def _check_run(
    report: ChildReport, index: int, metrics: Any, jobs: int, events: int, dequeued: float
) -> None:
    """Every job ends in exactly one state; the event counters agree."""
    accounted = (
        metrics.jobs_completed + metrics.jobs_failed + metrics.jobs_killed + metrics.jobs_unfinished
    )
    if accounted != metrics.jobs_total or metrics.jobs_total != jobs:
        report.problems.append(f"episode {index}: job accounting {accounted} != {jobs}")
        report.failed_operations += 1
    if events != dequeued:
        report.problems.append(f"episode {index}: event counters disagree")
        report.failed_operations += 1


def run_fleet(
    report: ChildReport,
    spawned_at: float,
    params: dict[str, Any],
    tracer: Tracer,
    host: HostSampler,
) -> tuple[_PerfTotals, float]:
    """Synthesize, set up, simulate, summarize and report each fleet replay.

    Each phase is timed on its own, with a host sample between phases, and
    rescaled once the replays are done.  Returns the program's summed perf
    counters and the harness-timed simulation seconds as measured (for the
    layer-sum check).
    """
    from repro.ops.dashboard import run_report
    from repro.workload.fleet import fleet_trace
    from repro.workload.models import assign_models

    clock = time.perf_counter
    perf = _PerfTotals()
    began = clock()
    config = fleet_config(params["days"], params["nodes"])  # shared load calibration
    calibrated = clock()
    host.sample()
    digests: list[str] = []
    # Per replay: (start, end) of synthesis, construction, run and output.
    phases: list[list[tuple[float, float]]] = []
    for index, seed in enumerate(slice_seeds(report.seed, params, report.slice_index)):
        tracer.operation = index
        report.operations += 1
        marks = [clock()]
        trace = assign_models(fleet_trace(config, seed=seed), seed=seed)
        marks.append(clock())
        host.sample()
        marks.append(clock())
        simulator = _fleet_simulator(params["nodes"], trace)
        marks.append(clock())
        host.sample()
        marks.append(clock())
        result = simulator.run()
        marks.append(clock())
        host.sample()
        marks.append(clock())
        digests.append(canonical_digest(result.summary()))
        run_report(result)
        marks.append(clock())
        host.sample()
        phases.append(list(zip(marks[::2], marks[1::2])))
        report.ops.append({"events": float(result.events_processed)})
        perf.add(result.perf.as_dict())
        _check_run(
            report, index, result.metrics, len(trace), result.events_processed,
            result.perf.events_dequeued,
        )
        # Free this replay (its simulator holds reference cycles) before the
        # next one allocates, so peak memory is one replay's, whatever the
        # collector's timing.
        del trace, simulator, result
        gc.collect()
    report.digest = canonical_digest(digests)
    report.process["peak_rss_mb"] = peak_rss_mb()

    report.process["start_s"] = host.rescale(spawned_at, began)
    calibration_s = host.rescale(began, calibrated)
    for index, (op, windows) in enumerate(zip(report.ops, phases)):
        trace_gen_s, construct_s, sim_wall_s, output_s = (host.rescale(*w) for w in windows)
        if index == 0:
            trace_gen_s += calibration_s
            # Imports, cluster build and simulator construction: everything
            # before the first dispatch except synthesis.
            report.process["setup_s"] = report.process["start_s"] + construct_s
        op["trace_gen_s"] = trace_gen_s
        op["sim_wall_s"] = sim_wall_s
        op["wall_s"] = trace_gen_s + construct_s + sim_wall_s + output_s
        op["speed"] = host.speed(*windows[2])
    return perf, sum(end - start for _, _, (start, end), _ in phases)


def campus_cells(seeds: list[int], days: float, jobs_per_day: float) -> list[Any]:
    """One sweep cell per contended campus replay, one replay per seed."""
    from repro.sweep.spec import SchedulerSpec, SimCell, TraceSpec

    return [
        SimCell(
            trace=TraceSpec(
                days=days,
                synth_seed=episode_seed,
                load=None,
                model_seed=episode_seed,
                overrides={"jobs_per_day": jobs_per_day},
            ),
            scheduler=SchedulerSpec(name="backfill-easy"),
            sim={"sample_interval_s": 1800.0},
        )
        for episode_seed in seeds
    ]


def run_campus(
    report: ChildReport,
    spawned_at: float,
    params: dict[str, Any],
    cache_dir: Path,
    tracer: Tracer,
    host: HostSampler,
) -> tuple[_PerfTotals, float, dict[str, dict[str, int]]]:
    """Run the campus cells cold into *cache_dir*, then warm from it.

    Each replay is one operation per pass, with a host sample between
    cold-pass replays; cold-pass times are rescaled once the passes are
    done.  *tracer* is always installed: untraced runs use it only for the
    trace-build and run-start probes, which fire a few dozen times.
    Returns the program's summed perf counters, the simulation seconds the
    program measured, and the sweep engine's counters per pass.
    """
    from repro import sweep

    clock = time.perf_counter
    perf = _PerfTotals()
    began = clock()
    # One load calibration for the batch, so every seed offers the same rate.
    config = campus_config(params["days"])
    calibrated = clock()
    host.sample()
    resumed = clock()
    cells = campus_cells(
        slice_seeds(report.seed, params, report.slice_index), params["days"], config.jobs_per_day
    )
    stats: dict[str, dict[str, int]] = {}
    digests: dict[str, list[str]] = {"cold": [], "warm": []}
    windows: list[tuple[float, float]] = []
    for offset, name in ((0, "cold"), (len(cells), "warm")):
        with sweep.execution(jobs=1, cache_dir=cache_dir) as runner:
            for index, cell in enumerate(cells):
                tracer.operation = offset + index
                report.operations += 1
                started = clock()
                result = runner.run_one(cell)
                digests[name].append(canonical_digest(result.summary))
                ended = clock()
                if name == "warm":
                    report.ops[index]["warm_s"] = ended - started
                    continue
                host.sample()
                windows.append((started, ended))
                if result.cached:
                    report.problems.append(f"cold pass served episode {index} from the cache")
                report.ops.append(
                    {"events": float(result.events_processed), "measured_sim_s": result.wall_s}
                )
                perf.add(result.perf)
                _check_run(
                    report, index, result.metrics, result.trace_jobs,
                    result.events_processed, result.perf["events_dequeued"],
                )
            stats[name] = runner.stats.snapshot()
    if digests["warm"] != digests["cold"]:
        report.problems.append("the warm replay differs from the cold pass")
        report.failed_operations += len(cells)
    warm = stats["warm"]
    if warm["cache_misses"] or warm["traces_synthesized"] or warm["cache_hits"] != warm["cells"]:
        report.problems.append(f"warm pass was not served from the cache: {warm}")
    report.digest = canonical_digest(digests["cold"])
    report.process["peak_rss_mb"] = peak_rss_mb()

    table = tracer.spans()

    def rescaled(name: str, runs: range | None = None, before: int | None = None) -> float:
        return sum(host.rescale(*w) for w in _top_windows(table, name, runs, before))

    report.process["start_s"] = host.rescale(spawned_at, began)
    for index, (op, window) in enumerate(zip(report.ops, windows)):
        op["trace_gen_s"] = rescaled("sweep.trace_build", range(index, index + 1))
        op["sim_wall_s"] = rescaled("sim.run", range(index, index + 1))
        op["wall_s"] = host.rescale(*window)
        op["speed"] = host.speed(*window)
    calibration_s = host.rescale(began, calibrated)
    report.ops[0]["trace_gen_s"] += calibration_s
    report.ops[0]["wall_s"] += calibration_s
    # Set-up runs until the first dispatch, less calibration, the first
    # host sample and the synthesis before that dispatch.
    first_run = _first_span(table, "sim.run")
    report.process["setup_s"] = (
        report.process["start_s"]
        + host.rescale(resumed, table.start[first_run])
        - rescaled("sweep.trace_build", before=first_run)
    )
    return perf, sum(op.pop("measured_sim_s") for op in report.ops), stats


def _first_span(table: SpanTable, name: str) -> int:
    code = table.names.index(name)
    return next(sid for sid in range(len(table)) if table.code[sid] == code)


# -- per-layer metrics ------------------------------------------------------------

#: Sweep-engine counters reported for the cold and the warm campus pass.
SWEEP_COUNTS = ("cells", "cache_hits", "cache_misses", "traces_synthesized", "trace_memo_hits")
#: Sweep-engine span totals reported for each pass.
SWEEP_TIMES = {"cache_read_s": "sweep.cache_read", "cache_write_s": "sweep.cache_write"}


def _top_windows(
    table: SpanTable, name: str, runs: range | None = None, before: int | None = None
) -> list[tuple[float, float]]:
    """(start, end) of *name* spans not nested in another *name* span.

    *runs* keeps only spans of those operations, *before* only spans that
    started before that span id.
    """
    if name not in table.names:
        return []
    code = table.names.index(name)
    windows = []
    for sid in range(len(table) if before is None else before):
        if table.code[sid] != code:
            continue
        parent = table.parent[sid]
        if parent >= 0 and table.code[parent] == code:
            continue
        if runs is not None and table.run[sid] not in runs:
            continue
        windows.append((table.start[sid], table.end[sid]))
    return windows


def _top_total(
    table: SpanTable, name: str, runs: range | None = None, before: int | None = None
) -> float:
    """Wall time of *name* spans not nested in another *name* span."""
    return sum(end - start for start, end in _top_windows(table, name, runs, before))


def attach_counters(tracer: Tracer) -> dict[str, int]:
    """Count successful placements and synthesized jobs at their boundary."""
    counters = {"placements": 0, "jobs": 0}

    def placed(placement: Any) -> None:
        if placement is not None:
            counters["placements"] += 1

    def synthesized(trace: Any) -> None:
        counters["jobs"] += len(trace)

    tracer.on_result["Scheduler.try_place"] = placed
    for label in ("TraceSynthesizer.generate", "FleetTraceSynthesizer.generate"):
        tracer.on_result[label] = synthesized
    return counters


def layer_metrics(
    tracer: Tracer,
    counters: dict[str, int],
    perf: _PerfTotals,
    measured_sim_s: float,
    sweep_stats: dict[str, dict[str, int]],
    ops: list[dict[str, float]],
) -> tuple[dict[str, float], list[str]]:
    """The per-layer split of a traced run, and any layer-sum problems."""
    operations = len(ops)
    table = tracer.spans()
    totals = layer_totals(table)
    self_s = totals.self_s
    calls = tracer.calls
    attempts = calls.get("Scheduler.try_place", 0)

    def get(mapping: dict[str, Any], key: str) -> float:
        return float(mapping.get(key, 0))

    metrics = {
        "sched.placement.self_s": get(self_s, "sched.placement"),
        "sched.placement.attempts": float(attempts),
        "sched.placement.success_ratio": counters["placements"] / attempts if attempts else 0.0,
        "sched.placement.blocked_hit_ratio": perf.ratio("blocked_cache_hits", "placement_attempts"),
        "cluster.index.nodes_per_attempt": perf.ratio("nodes_examined", "placement_attempts"),
        "sched.decision_self_s": get(self_s, "sched.decision"),
        "sched.passes": get(totals.top_count, "sched.decision"),
        "controlplane.commit_self_s": get(self_s, "controlplane.commit"),
        "controlplane.commits": get(totals.top_count, "controlplane.commit"),
        "controlplane.preempts": get(calls, "ClusterController.preempt"),
        "execlayer.slowdown_self_s": get(self_s, "execlayer.slowdown"),
        "execlayer.slowdown_calls": get(totals.top_count, "execlayer.slowdown"),
        "sim.engine.dispatch_self_s": get(self_s, "sim.engine.dispatch"),
        "sim.engine.events": get(calls, "SimulationEngine.step"),
        "sim.engine.enqueue_s": get(self_s, "sim.engine.enqueue"),
        "sim.eventq.peak_pending": perf.peak_pending,
        "sim.metrics.accounting_self_s": get(self_s, "sim.metrics.accounting"),
        "sim.metrics.summarize_s": _top_total(table, "sim.metrics.summarize"),
        "ops.report_s": _top_total(table, "ops.report"),
        "sim.other_self_s": sum(get(totals.sim_attributed_s, name) for name in UNATTRIBUTED),
        "sim.traced_wall_s": totals.sim_run_s,
        "workload.synth_s": _top_total(table, "workload.synth"),
        "workload.jobs": float(counters["jobs"]),
    }
    for prefix, name, runs in (
        ("sweep", "cold", range(0, operations)),
        ("sweep.warm", "warm", range(operations, 2 * operations)),
    ):
        stats = sweep_stats.get(name, {})
        for counter in SWEEP_COUNTS:
            metrics[f"{prefix}.{counter}"] = float(stats.get(counter, 0))
        for metric, span in SWEEP_TIMES.items():
            metrics[f"{prefix}.{metric}"] = _top_total(table, span, runs) if stats else 0.0
    metrics["sweep.warm.replay_s"] = sum(op.get("warm_s", 0.0) for op in ops)

    problems = layer_sum_check(totals, measured_sim_s, LAYER_SUM_TOLERANCE)
    # Every placement attempt and dispatch happens inside a run, so the
    # wrappers' counts must match the program's own counters.
    if attempts != perf.totals.get("placement_attempts", 0):
        problems.append(f"try_place calls {attempts} != placement_attempts counter")
    if get(calls, "SimulationEngine.step") != perf.totals.get("events_dequeued", 0):
        problems.append("step calls != events_dequeued counter")
    return metrics, problems


# -- one child run ----------------------------------------------------------------


def run_child(
    workload: str,
    seed: int,
    size: str,
    traced: bool,
    spawned_at: float,
    host: HostSampler,
    scratch: Path,
    slice_index: int = 0,
    trace_out: Path | None = None,
) -> ChildReport:
    """Run slice *slice_index* of *workload* once in this process and report.

    *host* samples the host's speed (periodically, unless *traced*); it
    holds the samples the parent took before spawning this process at
    *spawned_at*.
    """
    from tracer import CAMPUS_PROBES, LAYER_TARGETS, write_chrome_trace

    params = SIZES[workload][size]
    report = ChildReport(
        workload=workload, seed=seed, size=size, traced=traced, slice_index=slice_index
    )
    campus = workload == "campus-contended"
    tracer = Tracer()
    if traced:
        tracer.install(LAYER_TARGETS)
    elif campus:
        tracer.install(CAMPUS_PROBES)
    counters = attach_counters(tracer)
    sweep_stats: dict[str, dict[str, int]] = {}
    try:
        if campus:
            cache_dir = scratch / "sweep-cache"
            try:
                perf, measured_sim_s, sweep_stats = run_campus(
                    report, spawned_at, params, cache_dir, tracer, host
                )
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
        else:
            perf, measured_sim_s = run_fleet(report, spawned_at, params, tracer, host)
    finally:
        tracer.uninstall()
    costs = sorted(host.costs)
    report.host = {
        "samples": float(len(costs)),
        "min_probe_s": costs[0],
        "median_probe_s": statistics.median(costs),
        "max_probe_s": costs[-1],
    }
    if traced:
        report.layers, problems = layer_metrics(
            tracer, counters, perf, measured_sim_s, sweep_stats, report.ops
        )
        report.problems.extend(problems)
        if trace_out is not None:
            write_chrome_trace(
                tracer.spans(),
                trace_out,
                MAX_TRACE_SPANS,
                {"workload": workload, "seed": seed, "size": size, "slice": slice_index},
            )
    return report
