"""EASY backfill admits a candidate against its reservation before placing.

The shipped :class:`EasyBackfillScheduler` evaluates the backfill test
(finishes before the shadow time, or fits in the extra GPUs) first and
asks for a placement only when the test passes.  The original loop placed
every queued job and then discarded the placements that failed the test.
Placing only reads cluster state, so the two loops must make identical
decisions; these tests run a reference scheduler that keeps the original
place-then-admit loop next to the shipped one and compare whole runs.

The one placement path with state, the transfer-aware deferral counter,
is where the two loops differ on purpose: a stage EASY cannot backfill no
longer spends its deferral patience.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import build_tacc_cluster, uniform_cluster
from repro.execlayer.speedup import ExecutionModel
from repro.sched import EasyBackfillScheduler
from repro.sched.backfill import compute_reservation
from repro.sched.base import ScheduleContext
from repro.sched.placement.transfer_aware import TransferAwarePlacement
from repro.sim import ClusterSimulator, SimConfig
from repro.sim.failures import FailureConfig
from repro.workload.models import assign_models
from repro.workload.synth import TraceSynthesizer, tacc_campus, with_load
from tests.conftest import make_job

TACC_GPUS = 176
LOAD = 1.5
DAYS = 2.0


class _Recording:
    """Mixin: record every start and count successful placements."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.starts: list[tuple[float, str, tuple[str, ...]]] = []
        self.placed = 0

    def try_place(self, ctx, job):
        placement = super().try_place(ctx, job)
        if placement is not None:
            self.placed += 1
        return placement

    def on_start(self, job, now):
        super().on_start(job, now)
        self.starts.append((now, job.job_id, tuple(job.current_nodes)))


class _GatedEasy(_Recording, EasyBackfillScheduler):
    """The shipped admit-then-place EASY, instrumented."""


class _PlaceThenAdmitEasy(_Recording, EasyBackfillScheduler):
    """Reference EASY: place every queued job, then apply the backfill test."""

    def schedule(self, ctx: ScheduleContext) -> None:
        self._sync_ledger(ctx)
        reservation = None
        for job in self._fifo_queue():
            placement = self.try_place(ctx, job)
            if reservation is None:
                if placement is not None:
                    ctx.start_job(job, placement)
                    continue
                reservation = compute_reservation(ctx, job, self._ledger)
                continue
            if placement is None:
                continue
            finish_estimate = ctx.now + (job.walltime_estimate or 0.0)
            if finish_estimate <= reservation.shadow_time:
                ctx.start_job(job, placement)
            elif job.num_gpus <= reservation.extra_gpus:
                ctx.start_job(job, placement)
                reservation.extra_gpus -= job.num_gpus


@pytest.fixture(scope="module")
def contended_config():
    return with_load(tacc_campus(days=DAYS), TACC_GPUS, LOAD, seed=1)


def _trace(config, seed, partitioned=False):
    """A fresh copy of the seeded campus trace (runs mutate their jobs)."""
    trace = TraceSynthesizer(config, seed=seed).generate()
    assign_models(trace, seed=seed)
    if partitioned:
        # Every third job names a partition, so it places only within that
        # partition's nodes (an ``allowed_nodes``-restricted request).
        names = ("a100", "v100")
        for index, job in enumerate(trace):
            if index % 3 == 0:
                job.partition = names[(index // 3) % len(names)]
    return trace


def _run(scheduler, trace, failures=None):
    simulator = ClusterSimulator(
        build_tacc_cluster(),
        scheduler,
        trace,
        exec_model=ExecutionModel(),
        config=SimConfig(sample_interval_s=1800.0, verify_every=500),
        failure_config=failures,
    )
    return simulator.run()


def _compare(config, seed, partitioned=False, failures=None):
    gated, reference = _GatedEasy(), _PlaceThenAdmitEasy()
    gated_result = _run(gated, _trace(config, seed, partitioned), failures)
    reference_result = _run(reference, _trace(config, seed, partitioned), failures)
    assert json.dumps(gated_result.summary(), sort_keys=True) == json.dumps(
        reference_result.summary(), sort_keys=True
    )
    assert gated.starts == reference.starts
    # The gate never discards a placement; the reference discards many.
    assert gated.placed == len(gated.starts)
    assert reference.placed > len(reference.starts)
    assert gated_result.perf.placement_attempts < reference_result.perf.placement_attempts
    return gated, gated_result


@pytest.mark.parametrize("seed", [3, 11])
def test_contended_tacc_replay_is_identical(contended_config, seed):
    gated, _ = _compare(contended_config, seed)
    assert len(gated.starts) > 500


def test_partition_restricted_trace_is_identical(contended_config):
    gated, result = _compare(contended_config, 5, partitioned=True)
    restricted = {
        job_id for job_id, job in result.jobs.items() if job.request.allowed_nodes is not None
    }
    assert restricted & {job_id for _, job_id, _ in gated.starts}


def test_failure_injected_run_is_identical(contended_config):
    failures = FailureConfig(mtbf_hours=48.0, repair_hours_median=1.0)
    _, result = _compare(contended_config, 7, failures=failures)
    assert result.metrics.node_failures > 0


# -- transfer-aware deferral ----------------------------------------------------


def _deferral_setup(stage_walltime_s: float):
    """A blocked head job, and a workflow stage behind it whose artifact sits
    on a busy node.

    Three 8-GPU nodes: the data node and a second node are full, the third
    is free.  The 16-GPU head job blocks; its reservation lands when the
    data node's job ends at t=1000 with no extra GPUs.  The 4-GPU stage can
    be backfilled only if it finishes before t=1000.
    """
    cluster = uniform_cluster(3, gpus_per_node=8)
    data_node, other_node, _free_node = sorted(cluster.nodes)
    running = {}
    for job_id, node_id, walltime in (
        ("run-data", data_node, 1000.0),
        ("run-other", other_node, 50_000.0),
    ):
        job = make_job(job_id, num_gpus=8, duration=walltime, walltime_estimate=walltime)
        cluster.allocate(job_id, {node_id: 8})
        job.start(0.0, (node_id,))
        running[job_id] = job
    upstream = make_job("up", artifact_bytes=50_000e9)
    upstream.last_nodes = (data_node,)
    head = make_job(
        "head", num_gpus=16, gpus_per_node=8, submit_time=1.0, walltime_estimate=100.0
    )
    stage = make_job(
        "stage", num_gpus=4, submit_time=2.0, depends_on=("up",),
        walltime_estimate=stage_walltime_s,
    )
    policy = TransferAwarePlacement(defer_threshold_s=600.0, max_defers=2)
    policy.bind({job.job_id: job for job in (*running.values(), upstream, head, stage)})
    scheduler = EasyBackfillScheduler(placement=policy)
    for job in (head, stage):
        scheduler.enqueue(job, 10.0)
    started = []
    ctx = ScheduleContext(
        now=10.0,
        cluster=cluster,
        running=running,
        start_job=lambda job, placement: started.append(job.job_id),
        preempt_job=lambda job: None,
    )
    return scheduler, policy, ctx, started


def test_stage_easy_cannot_backfill_keeps_its_deferral_budget():
    scheduler, policy, ctx, started = _deferral_setup(stage_walltime_s=5000.0)
    for _ in range(3):
        scheduler.schedule(ctx)
    assert started == []
    # Never consulted: finishing after the shadow time with no extra GPUs,
    # the stage could not have started, so no patience was spent.
    assert policy._defers == {}


def test_deferral_is_counted_when_the_stage_could_start():
    scheduler, policy, ctx, started = _deferral_setup(stage_walltime_s=100.0)
    scheduler.schedule(ctx)
    assert started == []
    assert policy._defers == {"stage": 1}
