"""Outside-in span tracer for the simulator's layers.

The tracer wraps the public entry points of each layer (the table in
:data:`LAYER_TARGETS`) with a small closure that records one span per call
— name, start, end and parent — into flat in-memory arrays.  Nothing under
``src/`` is modified: wrappers are installed by rebinding attributes on the
defining class or module (and on every ``repro`` module that imported the
same function by name), and :meth:`Tracer.uninstall` puts every original
back.

Self time of a span is its duration minus the durations of its direct
children.  Calls are synchronous and single-threaded, so spans nest
properly; a negative self time would mean a wrapper recorded the wrong
parent, and :func:`layer_sum_check` treats that as a failed run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: Span name -> (module, attribute path) of each wrapped entry point.
#: ``Class.*method`` wraps *method* on the class and on every subclass
#: that overrides it (scheduling policies, execution models).
LAYER_TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "sim.run": (("repro.sim.simulator", "ClusterSimulator.run"),),
    "sim.start_job": (("repro.sim.simulator", "ClusterSimulator._start_job"),),
    "sim.engine.dispatch": (
        ("repro.sim.engine", "SimulationEngine.run"),
        ("repro.sim.engine", "SimulationEngine.step"),
    ),
    "sim.engine.enqueue": (("repro.sim.engine", "SimulationEngine.schedule_at"),),
    "sched.decision": (("repro.sched.base", "Scheduler.*schedule"),),
    "sched.placement": (("repro.sched.base", "Scheduler.try_place"),),
    "controlplane.commit": tuple(
        ("repro.controlplane.controller", f"ClusterController.{method}")
        for method in (
            "track",
            "admit",
            "reject",
            "hold_for_deps",
            "release_deps",
            "restrict_to_partition",
            "start",
            "finish",
            "preempt",
            "kill",
            "apply_node_failure",
            "apply_node_repair",
        )
    ),
    "execlayer.slowdown": (("repro.execlayer.speedup", "ExecutionModel.*slowdown"),),
    "sim.metrics.accounting": (
        ("repro.sim.metrics", "MetricsCollector.on_used_changed"),
        ("repro.sim.metrics", "MetricsCollector.on_healthy_changed"),
        ("repro.sim.metrics", "MetricsCollector.sample"),
    ),
    "sim.metrics.summarize": (("repro.sim.metrics", "summarize"),),
    "ops.report": (("repro.ops.dashboard", "run_report"),),
    "workload.synth": (
        ("repro.workload.synth", "calibrate_jobs_per_day"),
        ("repro.workload.synth", "TraceSynthesizer.generate"),
        ("repro.workload.fleet", "FleetTraceSynthesizer.generate"),
        ("repro.workload.models", "assign_models"),
    ),
    "sweep.cell": (("repro.sweep.build", "run_cell"),),
    "sweep.trace_build": (("repro.sweep.build", "build_trace"),),
    "sweep.cache_read": (
        ("repro.sweep.cache", "SweepCache.get"),
        ("repro.sweep.cache", "SweepCache.get_trace"),
        ("repro.sweep.cache", "SweepCache.get_meta"),
    ),
    "sweep.cache_write": (("repro.sweep.cache", "SweepCache.put"),),
}

#: The untraced campus run's only probes: how long trace synthesis took
#: and when the first run started.
CAMPUS_PROBES = {name: LAYER_TARGETS[name] for name in ("sweep.trace_build", "sim.run")}

#: Spans that belong to no layer: the run span's own self time and the
#: simulator's start-job glue make up the ``sim.other`` residual.
UNATTRIBUTED = ("sim.run", "sim.start_job")

#: Modules whose import registers every class the targets reach (all
#: scheduling and placement policies, execution models, the sweep engine).
_PRELOAD = ("repro.sched", "repro.sweep")


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    stack = [cls]
    while stack:
        current = stack.pop()
        found.append(current)
        stack.extend(current.__subclasses__())
    return sorted(set(found), key=lambda c: (c.__module__, c.__qualname__))


def _resolve(module_name: str, path: str) -> list[tuple[Any, str, str]]:
    """(owner, attribute, label) triples a target string refers to."""
    module = importlib.import_module(module_name)
    if "." not in path:
        return [(module, path, path)]
    class_name, attr = path.split(".", 1)
    cls = getattr(module, class_name)
    if attr.startswith("*"):
        attr = attr[1:]
        return [
            (sub, attr, f"{sub.__name__}.{attr}")
            for sub in _subclasses(cls)
            if attr in sub.__dict__
        ]
    return [(cls, attr, f"{class_name}.{attr}")]


@dataclass
class SpanTable:
    """Flat span storage: one entry per call, in call order."""

    names: list[str]
    code: array  # name index per span
    parent: array  # parent span id, -1 at top level
    start: array  # perf_counter seconds
    end: array
    run: array  # operation index the span belongs to

    def __len__(self) -> int:
        return len(self.code)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Duration minus the durations of direct children, per span."""
        own = self.durations()
        child = [0.0] * len(own)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += own[sid]
        return [d - c for d, c in zip(own, child)]


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._codes: dict[str, int] = {}
        self._code = array("l")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._run = array("l")
        self._stack: list[int] = [-1]
        self._installed: list[tuple[Any, str, Any]] = []
        #: Calls per wrapped function label (``ClusterController.preempt``).
        self.calls: dict[str, int] = {}
        #: Per-label hooks run on each call's return value.
        self.on_result: dict[str, Callable[[Any], None]] = {}
        self.operation = 0

    # -- recording ------------------------------------------------------------

    def _wrap(self, fn: Callable[..., Any], name: str, label: str) -> Callable[..., Any]:
        code = self._codes.setdefault(name, len(self._codes))
        if code == len(self._names):
            self._names.append(name)
        codes, parents, starts, ends, runs = (
            self._code,
            self._parent,
            self._start,
            self._end,
            self._run,
        )
        stack = self._stack
        clock = time.perf_counter
        calls = self.calls
        calls.setdefault(label, 0)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = len(codes)
            codes.append(code)
            parents.append(stack[-1])
            runs.append(tracer.operation)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            calls[label] += 1
            hook = tracer.on_result.get(label)
            if hook is not None:
                hook(result)
            return result

        wrapper.__wrapped_by_perfbench__ = True  # type: ignore[attr-defined]
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self, targets: dict[str, tuple[tuple[str, str], ...]] = LAYER_TARGETS) -> None:
        """Wrap every target; functions are rebound wherever imported."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module_name in _PRELOAD:
            importlib.import_module(module_name)
        for name, entries in targets.items():
            for module_name, path in entries:
                for owner, attr, label in _resolve(module_name, path):
                    original = owner.__dict__[attr]
                    wrapped = self._wrap(original, name, label)
                    self._set(owner, attr, wrapped)
                    if isinstance(owner, type):
                        continue
                    # Module-level function: rebind every `from x import f`.
                    for module in list(sys.modules.values()):
                        if module is owner or not getattr(module, "__name__", "").startswith(
                            "repro"
                        ):
                            continue
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._set(module, key, wrapped)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every rebound attribute, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def spans(self) -> SpanTable:
        return SpanTable(
            list(self._names), self._code, self._parent, self._start, self._end, self._run
        )


@dataclass
class LayerTotals:
    """Per-layer self time and call count, plus the layer-sum check inputs.

    ``top_count`` counts spans not nested in a span of the same name (a
    policy's ``schedule`` calling its parent class's counts once).
    """

    self_s: dict[str, float]
    top_count: dict[str, int]
    min_self_s: float
    sim_run_s: float
    sim_attributed_s: dict[str, float]


def layer_totals(table: SpanTable) -> LayerTotals:
    """Aggregate spans by layer; split out the time inside sim runs."""
    own = table.durations()
    self_times = table.self_times()
    names = table.names
    self_s = {name: 0.0 for name in names}
    top_count = {name: 0 for name in names}
    run_code = names.index("sim.run") if "sim.run" in names else -1
    # in_run[sid]: id of the enclosing top-level ClusterSimulator.run span.
    in_run = [-1] * len(own)
    sim_run_s = 0.0
    sim_attributed = {name: 0.0 for name in names}
    code, parent = table.code, table.parent
    for sid in range(len(own)):
        name = names[code[sid]]
        p = parent[sid]
        self_s[name] += self_times[sid]
        if p < 0 or names[code[p]] != name:
            top_count[name] += 1
        inherited = in_run[p] if p >= 0 else -1
        if inherited < 0 and code[sid] == run_code:
            inherited = sid
            sim_run_s += own[sid]
        in_run[sid] = inherited
        if inherited >= 0:
            sim_attributed[name] += self_times[sid]
    return LayerTotals(
        self_s=self_s,
        top_count=top_count,
        min_self_s=min(self_times) if self_times else 0.0,
        sim_run_s=sim_run_s,
        sim_attributed_s=sim_attributed,
    )


def layer_sum_check(
    totals: LayerTotals, measured_sim_s: float | None, tolerance: float
) -> list[str]:
    """Problems found; empty when the layer split accounts for the runs.

    No span may have a negative self time (beyond clock rounding), and
    the self times of every span inside ``ClusterSimulator.run`` — the
    layers plus the ``sim.other`` residual — must add up to the run time
    the caller measured with its own clock (*measured_sim_s*; the run
    spans' own duration when the caller did not time the runs).
    """
    problems = []
    if totals.min_self_s < -1e-6:
        problems.append(f"negative self time {totals.min_self_s:.3e}s")
    whole = totals.sim_run_s if measured_sim_s is None else measured_sim_s
    attributed = sum(totals.sim_attributed_s.values())
    if abs(attributed - whole) > tolerance * whole + 0.002:
        problems.append(f"layer self times sum to {attributed:.6f}s of {whole:.6f}s simulated")
    return problems


def write_chrome_trace(
    table: SpanTable, path: Path, max_spans: int, metadata: dict[str, Any]
) -> None:
    """Write the first *max_spans* spans as Chrome trace-event JSON.

    Each operation becomes its own thread track, so the replays of a batch
    sit side by side in Perfetto.
    """
    written = min(len(table), max_spans)
    origin = table.start[0] if written else 0.0
    events: list[dict[str, Any]] = []
    for sid in range(written):
        events.append(
            {
                "name": table.names[table.code[sid]],
                "ph": "X",
                "ts": round((table.start[sid] - origin) * 1e6, 3),
                "dur": round((table.end[sid] - table.start[sid]) * 1e6, 3),
                "pid": 1,
                "tid": table.run[sid],
                "args": {"span": sid, "parent": table.parent[sid], "run": table.run[sid]},
            }
        )
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {**metadata, "spans_total": len(table), "spans_written": written},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(doc, handle)
