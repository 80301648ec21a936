"""Transfer-aware placement: put workflow stages where their inputs sit.

For a stage consuming upstream artifacts, the dominant start-up cost can be
moving those artifacts across the leaf–spine fabric.  This policy ranks
candidate nodes by the artifact-fetch seconds they would incur (priced by
:func:`repro.execlayer.transfer.transfer_seconds` — the *same* model the
simulator charges as setup time, so the policy optimises exactly what the
simulation measures), breaking ties best-fit style.

It also weighs moving data against *queueing where the data already sits*:
when the cheapest available placement still costs more than
``defer_threshold_s`` of transfer and a node holding the artifacts is
currently busy (so its release is a future event that will re-wake the
scheduler), the policy declines to place for up to ``max_defers``
consultations, waiting for capacity near the data.  The deferral budget is
a deterministic per-job counter — no clocks, no randomness — and deferral
never happens when the preferred nodes are idle, so a deferred job can
always be re-awakened by the release that motivated the wait.

Jobs without artifact-bearing dependencies (all non-workflow traffic) fall
through to plain best-fit ranking, byte-identical to
:class:`~repro.sched.placement.best_fit.BestFitPlacement`.
"""

from __future__ import annotations

from typing import Mapping

from ...cluster.cluster import Cluster
from ...cluster.node import Node
from ...execlayer.transfer import artifact_fetch_seconds, transfer_seconds
from ...ids import JobId, NodeId
from ...workload.job import Job, ResourceRequest
from .base import PlacementPolicy, candidate_nodes, placement_possible, request_chunks


class TransferAwarePlacement(PlacementPolicy):
    """Rank candidates by upstream-artifact fetch cost, then best-fit.

    The deferral counter makes :meth:`place_job` the one placement path with
    state: every consultation that defers spends patience.  EASY backfill
    admits a candidate against its reservation *before* it places, so a
    deferral is counted only when the consultation could have started the
    job.  Conservative backfill still places speculatively, and its
    discarded consultations still spend patience.
    """

    name = "transfer-aware"

    #: Deferral is deliberately reserved for *extreme* fetches: measured on
    #: pipeline traces, waiting out a busy data node costs more queueing
    #: than it saves in transfer for anything under ~10 minutes of fetch
    #: (the scheduler pass that re-consults the policy is itself minutes
    #: away at moderate load), so the threshold defaults high and the
    #: patience budget small.
    def __init__(
        self, defer_threshold_s: float = 600.0, max_defers: int = 2
    ) -> None:
        self.defer_threshold_s = defer_threshold_s
        self.max_defers = max_defers
        self._jobs: Mapping[JobId, Job] | None = None
        self._defers: dict[JobId, int] = {}

    def bind(self, jobs: Mapping[JobId, Job]) -> None:
        self._jobs = jobs
        self._defers.clear()

    # -- request-only fallback (identical to best-fit) -------------------------

    def place(self, cluster: Cluster, request: ResourceRequest) -> dict[NodeId, int] | None:
        if not placement_possible(cluster, request):
            return None
        chunk = request_chunks(request)[0]
        ranked = sorted(
            candidate_nodes(cluster, request, chunk),
            key=lambda node: (node.free_gpus - chunk, node.node_id),
        )
        return self._assemble(cluster, request, ranked)

    # -- job-aware path --------------------------------------------------------

    def place_job(self, cluster: Cluster, job: Job) -> dict[NodeId, int] | None:
        upstreams = self._artifact_upstreams(job)
        if not upstreams:
            return self.place(cluster, job.request)
        request = job.request
        if not placement_possible(cluster, request):
            return None
        chunk = request_chunks(request)[0]
        candidates = candidate_nodes(cluster, request, chunk)
        topology = cluster.topology

        def fetch_cost(node: Node) -> float:
            return sum(
                transfer_seconds(
                    upstream.artifact_bytes,
                    upstream.last_nodes,
                    (node.node_id,),
                    topology,
                )
                for upstream in upstreams
            )

        ranked = sorted(
            candidates,
            key=lambda node: (fetch_cost(node), node.free_gpus - chunk, node.node_id),
        )
        placement = self._assemble(cluster, request, ranked)
        if placement is None:
            return None
        assert self._jobs is not None
        cost = artifact_fetch_seconds(
            job, tuple(sorted(placement)), self._jobs, topology
        )
        if cost <= self.defer_threshold_s:
            self._defers.pop(job.job_id, None)
            return placement
        # The best placement available now still pays a heavy transfer.
        # Queue where the data sits instead — but only while a node holding
        # the artifacts is busy (its release is the wake-up we wait for)
        # and the patience budget lasts.
        deferred = self._defers.get(job.job_id, 0)
        if deferred < self.max_defers and self._data_nodes_busy(cluster, upstreams):
            self._defers[job.job_id] = deferred + 1
            return None
        self._defers.pop(job.job_id, None)
        return placement

    def _artifact_upstreams(self, job: Job) -> tuple[Job, ...]:
        if self._jobs is None or not job.depends_on:
            return ()
        upstreams = []
        for upstream_id in job.depends_on:
            upstream = self._jobs.get(upstream_id)
            if (
                upstream is not None
                and upstream.artifact_bytes > 0
                and upstream.last_nodes
            ):
                upstreams.append(upstream)
        return tuple(upstreams)

    @staticmethod
    def _data_nodes_busy(cluster: Cluster, upstreams: tuple[Job, ...]) -> bool:
        for upstream in upstreams:
            for node_id in upstream.last_nodes:
                node = cluster.nodes.get(node_id)
                if node is not None and node.healthy and node.used_gpus > 0:
                    return True
        return False
