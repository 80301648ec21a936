"""Transition-log and timeline golden, plus a lifecycle conservation audit.

``tests/data/transition_golden.json`` holds, per run, a sha256 over every
``Transition`` (all eight fields, in log order) and over the timeline as
``(time, kind, subject, detail)``.  The runs are the five lifecycle-golden
scenarios, a workflow-DAG run whose failing upstream stages cascade-kill
their dependents, and a failure-injected run with node_down/node_up
events and user kills (``scripts/capture_transition_golden.py``).  Summary
goldens would not notice a reordered edge or a changed attempt number;
these digests do.

The audit checks the same runs against laws that hold for any correct
run, independent of the captured digests: each job's records form a
contiguous walk through LEGAL_TRANSITIONS from PENDING to its current
lifecycle, the live-job counter matches the non-terminal jobs, and every
count the log and the churn metrics report equals a recount of the
retained records.

Regenerate the fixture ONLY for an intentional behaviour change:
``PYTHONPATH=src python scripts/capture_transition_golden.py``.
"""

from __future__ import annotations

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.controlplane import LEGAL_TRANSITIONS, Cause, LifecycleState
from repro.sim import summarize

REPO = Path(__file__).resolve().parent.parent
FIXTURE = REPO / "tests" / "data" / "transition_golden.json"


def _load_capture_module():
    spec = importlib.util.spec_from_file_location(
        "capture_transition_golden", REPO / "scripts" / "capture_transition_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_capture = _load_capture_module()
GOLDEN = json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def runs():
    return dict(_capture.runs())


def test_fixture_covers_every_run(runs):
    assert set(runs) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_transitions_and_timeline_match_golden(runs, name):
    assert _capture.digests(runs[name]) == GOLDEN[name]


def test_runs_cover_cascades_node_events_and_user_kills(runs):
    kinds = {event.kind for sim in runs.values() for event in sim.timeline}
    assert {"hold", "node_down", "node_up", "kill", "reject", "requeue"} <= kinds
    causes = {t.cause.value for sim in runs.values() for t in sim.controller.log}
    assert {"upstream_failed", "user_kill", "preemption_limit"} <= causes


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_each_job_walks_the_state_machine(runs, name):
    sim = runs[name]
    walks: dict[str, list] = {job_id: [] for job_id in sim.jobs}
    for transition in sim.controller.log:
        walks[transition.job_id].append(transition)
    for job_id, walk in walks.items():
        state = LifecycleState.PENDING
        for transition in walk:
            assert transition.source is state, (job_id, transition)
            assert transition.target in LEGAL_TRANSITIONS[state], (job_id, transition)
            state = transition.target
        assert state is sim.jobs[job_id].lifecycle, job_id


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_live_jobs_and_churn_counters_match_the_log(runs, name):
    sim = runs[name]
    log = sim.controller.log
    live = sum(1 for job in sim.jobs.values() if not job.lifecycle.terminal)
    assert sim.controller.live_jobs == live

    records = log.records
    edges = Counter((t.target, t.cause) for t in records)
    for target in LifecycleState:
        for cause in Cause:
            assert log.count(target, cause) == edges[target, cause], (target, cause)
        assert log.count(target) == sum(t.target is target for t in records), target
    for cause in Cause:
        assert log.count(cause=cause) == sum(t.cause is cause for t in records), cause
    assert log.count() == len(log) == len(records)
    assert list(log.by_cause().items()) == list(
        Counter(t.cause.value for t in records).items()
    )

    # The churn metrics of the run's result, as ClusterSimulator.run builds them.
    metrics = summarize(sim.jobs, sim.metrics, [log], sim.engine.now)
    targets = [t.target for t in records]
    causes = [t.cause for t in records]
    assert metrics.preemptions == targets.count(LifecycleState.PREEMPTED)
    assert metrics.job_restarts == targets.count(LifecycleState.RESTARTING)
    assert metrics.rejected_jobs == causes.count(Cause.REJECT)
    assert metrics.walltime_kills == causes.count(Cause.WALLTIME_LIMIT)
