"""Tests for the derived timeline and Gantt reconstruction."""

from __future__ import annotations

import pytest

from repro.cluster import uniform_cluster
from repro.errors import ValidationError
from repro.execlayer import UnitExecutionModel
from repro.ops import job_segments, render_gantt
from repro.sched import GangScheduler, GreedyFifoScheduler
from repro.sim import ClusterSimulator, SimConfig
from repro.sim.simulator import TimelineEvent
from repro.workload import FailureCategory, FailurePlan, Trace
from tests.conftest import make_job


def run_recorded(jobs, scheduler=None, **config_kwargs):
    cluster = uniform_cluster(1, gpus_per_node=8)
    config_kwargs.setdefault("sample_interval_s", 0.0)
    config_kwargs.setdefault("checkpoint_loss_s", 0.0)
    simulator = ClusterSimulator(
        cluster,
        scheduler or GreedyFifoScheduler(),
        Trace(list(jobs)),
        exec_model=UnitExecutionModel(),
        config=SimConfig(**config_kwargs),
    )
    return simulator.run()


class TestRecording:
    def test_derived_from_the_transition_log(self):
        job = make_job("a", duration=100.0, submit_time=5.0)
        result = run_recorded([job])
        assert [(e.time, e.kind, e.subject, e.detail) for e in result.timeline] == [
            (t.time, t.timeline_kind, t.job_id, t.detail) for t in result.transitions
        ]

    def test_without_records_only_node_events_remain(self):
        from repro.sim import FailureConfig

        result = ClusterSimulator(
            uniform_cluster(1, gpus_per_node=8),
            GreedyFifoScheduler(),
            Trace([make_job("a", duration=20 * 3600.0)]),
            failure_config=FailureConfig(mtbf_hours=2.0),
            config=SimConfig(sample_interval_s=0.0, record_transitions=False),
        ).run()
        assert result.transitions == []
        assert len(result.log) > 0
        kinds = {event.kind for event in result.timeline}
        assert kinds == {"node_down", "node_up"}

    def test_happy_path_events(self):
        job = make_job("a", duration=100.0, submit_time=5.0)
        result = run_recorded([job])
        kinds = [(e.kind, e.time) for e in result.timeline]
        assert kinds == [("submit", 5.0), ("start", 5.0), ("complete", 105.0)]

    def test_failure_and_rejection_events(self):
        jobs = [
            make_job("bad", duration=100.0, failure_plan=FailurePlan(FailureCategory.OOM, 0.5)),
            make_job("huge", num_gpus=9),  # infeasible on one 8-GPU node
        ]
        result = run_recorded(jobs)
        by_kind = {}
        for event in result.timeline:
            by_kind.setdefault(event.kind, []).append(event.subject)
        assert by_kind["fail"] == ["bad"]
        assert by_kind["reject"] == ["huge"]

    def test_preemption_events(self):
        jobs = [
            make_job("a", num_gpus=8, duration=3000.0, submit_time=0.0, preemptible=True),
            make_job("b", num_gpus=8, duration=3000.0, submit_time=10.0, preemptible=True),
        ]
        result = run_recorded(jobs, scheduler=GangScheduler(quantum_s=600.0))
        kinds = {event.kind for event in result.timeline}
        assert "preempt" in kinds


class TestSegments:
    def test_queued_then_running(self):
        timeline = [
            TimelineEvent(0.0, "submit", "a"),
            TimelineEvent(10.0, "start", "a"),
            TimelineEvent(50.0, "complete", "a"),
        ]
        segments = job_segments(timeline)["a"]
        assert [(s.state, s.start, s.end) for s in segments] == [
            ("queued", 0.0, 10.0),
            ("running", 10.0, 50.0),
        ]

    def test_instant_start_has_no_queued_segment(self):
        timeline = [
            TimelineEvent(5.0, "submit", "a"),
            TimelineEvent(5.0, "start", "a"),
            TimelineEvent(9.0, "complete", "a"),
        ]
        segments = job_segments(timeline)["a"]
        assert [s.state for s in segments] == ["running"]

    def test_preemption_creates_alternation(self):
        timeline = [
            TimelineEvent(0.0, "submit", "a"),
            TimelineEvent(0.0, "start", "a"),
            TimelineEvent(10.0, "preempt", "a"),
            TimelineEvent(20.0, "start", "a"),
            TimelineEvent(30.0, "complete", "a"),
        ]
        states = [s.state for s in job_segments(timeline)["a"]]
        assert states == ["running", "queued", "running"]

    def test_live_job_closed_at_horizon(self):
        timeline = [
            TimelineEvent(0.0, "submit", "a"),
            TimelineEvent(0.0, "start", "a"),
            TimelineEvent(100.0, "submit", "b"),
        ]
        segments = job_segments(timeline)
        assert segments["a"][-1].end == 100.0
        assert segments["b"] == []  # zero-length queue at horizon

    def test_empty(self):
        assert job_segments([]) == {}


class TestGantt:
    def test_renders_every_job_with_outcome(self):
        jobs = [
            make_job("job-ok", duration=100.0, submit_time=0.0),
            make_job(
                "job-oom",
                duration=100.0,
                submit_time=1.0,
                failure_plan=FailurePlan(FailureCategory.OOM, 0.5),
            ),
        ]
        result = run_recorded(jobs)
        text = render_gantt(result.timeline, width=40)
        assert "job-ok" in text and "✓" in text
        assert "job-oom" in text and "✗" in text

    def test_max_jobs_truncation(self):
        jobs = [make_job(f"j{i}", duration=10.0, submit_time=float(i)) for i in range(6)]
        result = run_recorded(jobs)
        text = render_gantt(result.timeline, width=30, max_jobs=3)
        assert "3 more jobs not shown" in text

    def test_width_validation(self):
        with pytest.raises(ValidationError):
            render_gantt([TimelineEvent(0.0, "submit", "a")], width=5)

    def test_empty_timeline(self):
        assert "(empty timeline)" in render_gantt([])

    def test_round_robin_visible(self):
        jobs = [
            make_job(f"j{i}", num_gpus=8, duration=2000.0, submit_time=i * 100.0,
                     preemptible=True)
            for i in range(3)
        ]
        result = run_recorded(jobs, scheduler=GangScheduler(quantum_s=500.0))
        text = render_gantt(result.timeline, width=60)
        # Every job alternates running/queued at least once.
        for line in text.splitlines()[1:4]:
            body = line.split("|")[1]
            assert "█" in body and "·" in body
