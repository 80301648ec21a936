"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    ClusterSpec,
    FabricSpec,
    NodeGroup,
    NodeSpec,
    build_cluster,
    build_tacc_cluster,
    uniform_cluster,
)
from repro.errors import IllegalTransitionError
from repro.workload import Job, LifecycleState, ResourceRequest
from repro.workload.job import LEGAL_TRANSITIONS


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_cluster():
    """4 × 8-GPU V100 nodes in 2 racks — enough to exercise placement."""
    return uniform_cluster(4, gpus_per_node=8, nodes_per_rack=2)


@pytest.fixture
def hetero_cluster():
    """2 racks of A100 and 2 of RTX3090, small enough to reason about."""
    return build_cluster(
        ClusterSpec(
            name="hetero",
            groups=(
                NodeGroup(2, NodeSpec("a100-80", 8, 64, 512), nodes_per_rack=2),
                NodeGroup(2, NodeSpec("rtx3090", 4, 32, 256), nodes_per_rack=2),
            ),
            fabric=FabricSpec(),
        )
    )


@pytest.fixture
def tacc_cluster():
    return build_tacc_cluster()


def make_job(
    job_id="job-000000",
    num_gpus=1,
    duration=3600.0,
    submit_time=0.0,
    user="user-00-00",
    lab="lab-00",
    **kwargs,
):
    """Concise job construction for tests."""
    request_kwargs = {}
    for key in ("gpus_per_node", "gpu_type", "cpus_per_gpu", "memory_gb_per_gpu"):
        if key in kwargs:
            request_kwargs[key] = kwargs.pop(key)
    return Job(
        job_id=job_id,
        user_id=user,
        lab_id=lab,
        request=ResourceRequest(num_gpus=num_gpus, **request_kwargs),
        submit_time=submit_time,
        duration=duration,
        **kwargs,
    )


#: The Job work-accounting method ClusterController runs for each edge.
_ACCOUNTING = {
    LifecycleState.RUNNING: Job.start,
    LifecycleState.FINISHED: Job.complete,
    LifecycleState.FAILED: Job.fail,
    LifecycleState.KILLED: Job.kill,
    LifecycleState.PREEMPTED: Job.preempt,
    LifecycleState.RESTARTING: Job.requeue,
}


def move_job(job, target, now=0.0, *args, **kwargs):
    """Put a bare job into lifecycle *target* the way the control plane would.

    Runs the job's accounting method for the edge (``start``, ``complete``,
    ``fail``, …; extra arguments go to it), then moves ``job.lifecycle``.
    A PENDING job is admitted first when *target* needs it, so a fresh job
    can be started directly.  Illegal edges raise IllegalTransitionError,
    as ``ClusterController._apply`` does.
    """
    pending = job.lifecycle is LifecycleState.PENDING
    if pending and target not in LEGAL_TRANSITIONS[LifecycleState.PENDING]:
        job.lifecycle = LifecycleState.ADMITTED
    if target not in LEGAL_TRANSITIONS[job.lifecycle]:
        raise IllegalTransitionError(
            f"job {job.job_id}: {job.lifecycle.value} -> {target.value}"
        )
    accounting = _ACCOUNTING.get(target)
    if accounting is not None:
        accounting(job, now, *args, **kwargs)
    job.lifecycle = target
    return job


@pytest.fixture
def job_factory():
    return make_job
