"""Capture the transition-log/timeline golden used by tests/test_transition_golden.py.

Replays the five ``capture_lifecycle_golden.py`` scenarios, a workflow-DAG
run whose failing upstream stages cascade-kill their dependents, and a
small failure-injected run with user kills, then records per run:

* a sha256 over every :class:`~repro.controlplane.lifecycle.Transition`
  in log order, all eight fields;
* a sha256 over the timeline as ``(time, kind, subject, detail)``,
  node_down/node_up events included.

Summary goldens alone would not notice a reordered edge or a changed
attempt number; these digests do.  Regenerate the fixture ONLY for an
intentional behaviour change, never to make a refactor pass.

Usage: PYTHONPATH=src python scripts/capture_transition_golden.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path
from typing import Iterator

from repro.cluster import build_tacc_cluster, uniform_cluster
from repro.execlayer import ExecutionModel, UnitExecutionModel
from repro.experiments.common import campus_trace, fresh_trace_copy
from repro.sched import make_scheduler
from repro.sim import ClusterSimulator, SimConfig
from repro.sim.failures import FailureConfig
from repro.workload import FailureCategory, FailurePlan
from repro.workload.pipelines import PipelineSynthesizer, PipelineTraceConfig

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / "tests" / "data" / "transition_golden.json"


def _lifecycle_scenarios():
    spec = importlib.util.spec_from_file_location(
        "capture_lifecycle_golden", HERE / "capture_lifecycle_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.scenarios()


def _workflow_run() -> ClusterSimulator:
    """Workflow DAGs where every fourth upstream stage fails mid-run."""
    trace = PipelineSynthesizer(
        PipelineTraceConfig(days=1.0, workflows_per_day=30.0), seed=11
    ).generate()
    upstream_ids = sorted({dep for job in trace for dep in job.depends_on})
    failing = set(upstream_ids[::4])
    for job in trace:
        if job.job_id in failing:
            job.failure_plan = FailurePlan(FailureCategory.USER_ERROR, 0.5)
    return ClusterSimulator(
        uniform_cluster(6),
        make_scheduler("backfill-easy", placement="transfer-aware"),
        trace,
        exec_model=UnitExecutionModel(),
        config=SimConfig(sample_interval_s=1800.0, debug_invariants=1.0),
    )


def _failure_run() -> ClusterSimulator:
    """Node failures and repairs on a contended 16-GPU cluster."""
    trace = campus_trace(3, 1.0, days=1.0, load=1.2, cluster_gpus=64)
    return ClusterSimulator(
        uniform_cluster(2),
        make_scheduler("fifo"),
        trace,
        exec_model=ExecutionModel(),
        failure_config=FailureConfig(mtbf_hours=10.0, max_job_restarts=1),
        config=SimConfig(sample_interval_s=1800.0, checkpoint_loss_s=60.0, seed=3),
    )


def runs() -> Iterator[tuple[str, ClusterSimulator]]:
    """(name, finished simulator) for every golden run, in fixture order."""
    for name, make, kwargs, trace in _lifecycle_scenarios():
        kwargs = dict(kwargs)
        config = kwargs.pop("sim_config")
        sim = ClusterSimulator(
            build_tacc_cluster(),
            make(),
            fresh_trace_copy(trace),
            exec_model=ExecutionModel(),
            config=config,
            **kwargs,
        )
        sim.run()
        yield name, sim

    sim = _workflow_run()
    sim.run()
    yield "workflow_upstream_failure", sim

    sim = _failure_run()
    # User kills at 14 h: the first queued, the first running and the last
    # not-yet-arrived job.
    sim.engine.run(until=14 * 3600.0)
    not_arrived = [job for job in sim.trace if job.submit_time > sim.engine.now]
    for group in (sim.scheduler.queue, sim.running.values(), not_arrived[-1:]):
        live = sorted(job.job_id for job in group)
        if live:
            sim.kill_job(live[0])
    sim.run()
    yield "failure_injection_kills", sim


def _sha256(rows: list[tuple[object, ...]]) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def digests(sim: ClusterSimulator) -> dict[str, object]:
    transitions = [
        (
            t.job_id,
            t.time,
            t.source.value,
            t.target.value,
            t.cause.value,
            t.actor.value,
            t.attempt,
            t.detail,
        )
        for t in sim.controller.log.records
    ]
    timeline = [(e.time, e.kind, e.subject, e.detail) for e in sim.timeline]
    return {
        "transitions": len(transitions),
        "transitions_sha256": _sha256(transitions),
        "timeline": len(timeline),
        "timeline_sha256": _sha256(timeline),
    }


def main() -> None:
    fixture = {}
    for name, sim in runs():
        fixture[name] = digests(sim)
        print(f"{name}: {fixture[name]['transitions']} transitions, "
              f"{fixture[name]['timeline']} timeline events")
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
