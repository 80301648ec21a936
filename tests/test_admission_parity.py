"""Parity of static admission: the validator and arrival admission agree.

``validate_spec`` reports a cluster error exactly when a fresh
:class:`~repro.sim.simulator.ClusterSimulator` rejects the same job at
arrival, and the error text is the verdict of
:func:`~repro.sched.placement.base.admission_rejection`.  The grid crosses
every request dimension that verdict reads (width, per-node cap, GPU type,
per-node CPU and memory just under and just over each node flavour's
limits, partition, tier) on four cluster shapes, including the
mixed-type pair where counting hosts across types would wrongly admit a
two-node gang.
"""

from __future__ import annotations

import itertools

import pytest

from repro.cluster import (
    ClusterSpec,
    NodeGroup,
    NodeSpec,
    PartitionSpec,
    build_cluster,
    build_tacc_cluster,
    heterogeneous_cluster,
    uniform_cluster,
)
from repro.controlplane.lifecycle import LifecycleState
from repro.sched import make_scheduler
from repro.sched.placement.base import admission_rejection
from repro.schema import QosSpec, ResourceSpec, TaskSpec
from repro.schema.validate import validate_spec
from repro.sim.simulator import ClusterSimulator, SimConfig
from repro.tcloud import TaccFrontend
from repro.workload.trace import Trace

WALLTIME_HOURS = 60.0  # over the TACC consumer cap, under the a100 and v100 caps
TIERS = ("guaranteed", "opportunistic")


def pair_cluster():
    """One V100 node and one A100 node, with a tier-limited partition."""
    return build_cluster(
        ClusterSpec(
            name="pair",
            groups=(
                NodeGroup(1, NodeSpec("v100", 8, 96, 768), nodes_per_rack=1),
                NodeGroup(1, NodeSpec("a100-80", 8, 128, 1024), nodes_per_rack=1),
            ),
        ),
        partitions=(
            PartitionSpec("research", ("v100-000", "a100-80-000"), allowed_tiers=("guaranteed",)),
            PartitionSpec("legacy", ("v100-000",), max_gpus_per_job=8),
        ),
    )


CLUSTERS = {
    "tacc": build_tacc_cluster,
    "heterogeneous": lambda: heterogeneous_cluster(10),
    "pair": pair_cluster,
    "uniform": lambda: uniform_cluster(4),
}


def resource_variants(cluster, chunk):
    """(cpus_per_gpu, memory_gb_per_gpu): the defaults, then just under and
    just over each node flavour's CPU and memory limit for one chunk."""
    default_cpus, default_memory = 4, 32.0
    variants = [(default_cpus, default_memory)]
    flavours = sorted({(node.spec.cpus, node.spec.memory_gb) for node in cluster.nodes.values()})
    for cpus, memory_gb in flavours:
        variants += [
            (cpus // chunk, default_memory),
            (cpus // chunk + 1, default_memory),
            (default_cpus, memory_gb / chunk),
            (default_cpus, memory_gb / chunk + 1.0),
        ]
    return variants


def request_grid(cluster):
    types = [None, *sorted(cluster.gpu_census()), "h100"]
    partitions = [None, *sorted(p.name for p in cluster.partitions), "h100-island"]
    for num_gpus, gpus_per_node in itertools.product((1, 2, 4, 8, 16, 32, 64), (None, 4, 8)):
        chunk = num_gpus if gpus_per_node is None else min(num_gpus, gpus_per_node)
        for gpu_type, (cpus, memory_gb), partition, tier in itertools.product(
            types, resource_variants(cluster, chunk), partitions, TIERS
        ):
            resources = ResourceSpec(
                num_gpus=num_gpus,
                gpus_per_node=gpus_per_node,
                gpu_type=gpu_type,
                cpus_per_gpu=cpus,
                memory_gb_per_gpu=memory_gb,
                walltime_hours=WALLTIME_HOURS,
                partition=partition,
            )
            yield TaskSpec(name="probe", entrypoint="x", resources=resources, qos=QosSpec(tier))


def rejected_at_arrival(cluster, job):
    sim = ClusterSimulator(
        cluster,
        make_scheduler("fifo"),
        Trace([job], name="probe"),
        config=SimConfig(sample_interval_s=0.0),
    )
    sim.engine.step()  # the arrival; its scheduling pass is a later event
    assert job.lifecycle in (LifecycleState.ADMITTED, LifecycleState.KILLED)
    return job.lifecycle is LifecycleState.KILLED  # rejection kills at admission


@pytest.mark.parametrize("name", sorted(CLUSTERS))
def test_validator_and_arrival_admission_agree(name):
    cluster = CLUSTERS[name]()
    frontend = TaccFrontend(cluster=cluster)
    mismatches = []
    cases = rejections = 0
    for spec in request_grid(cluster):
        cases += 1
        resources = spec.resources
        verdict = admission_rejection(
            cluster,
            resources.to_request(),
            resources.partition,
            resources.walltime_hours,
            spec.qos.tier,
        )
        errors = [i.message for i in validate_spec(spec, cluster) if i.severity == "error"]
        rejected = rejected_at_arrival(cluster, frontend.job_for(spec, "probe"))
        rejections += rejected
        if errors != ([] if verdict is None else [verdict]) or rejected != (verdict is not None):
            mismatches.append((resources, spec.qos.tier, verdict, errors, rejected))
    assert not mismatches, f"{len(mismatches)}/{cases} disagree, e.g. {mismatches[:3]}"
    assert 0 < rejections < cases  # the grid exercises both outcomes


@pytest.mark.parametrize(
    "resources, expected",
    [
        (
            ResourceSpec(num_gpus=16, gpus_per_node=8),
            "request needs 2 node(s) of one GPU type hosting 8 GPUs (+32 CPUs, 256 GB "
            "each); cluster 'pair' has only 1 such node(s)",
        ),
        (
            ResourceSpec(num_gpus=1, gpu_type="h100"),
            "cluster 'pair' has no 'h100' nodes; available types: ['a100-80', 'v100']",
        ),
        (
            ResourceSpec(num_gpus=1, gpu_type="a100-80", partition="legacy"),
            "partition 'legacy' of cluster 'pair' has no 'a100-80' nodes; "
            "available types: ['v100']",
        ),
        (
            ResourceSpec(num_gpus=1, partition="h100-island"),
            "unknown partition 'h100-island'; known partitions: legacy, research",
        ),
        (
            ResourceSpec(num_gpus=16, gpus_per_node=8, gpu_type="v100", partition="legacy"),
            "requests 16 GPUs, partition legacy caps jobs at 8",
        ),
    ],
)
def test_verdict_messages(resources, expected):
    spec = TaskSpec(name="probe", entrypoint="x", resources=resources)
    [error] = [i for i in validate_spec(spec, pair_cluster()) if i.severity == "error"]
    assert (error.field, error.message) == ("resources", expected)
