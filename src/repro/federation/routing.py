"""Cross-cluster routing policies for the federated simulator.

A policy maps an arriving job to the index of the site that should
receive it, or ``None`` when no site could *ever* run it (the federation
then submits to the first site, whose admission path rejects it with the
ordinary bookkeeping — the job shows up as rejected, not silently lost).

A policy observes each site only through its
:class:`~repro.sim.simulator.ClusterSimulator`, is a pure function of
current site state and breaks ties by declaration order, so routing is
deterministic for a fixed site list.  Feasibility uses the sites'
memoized static-feasibility probe — the same verdict their own admission
applies — so a policy never routes a job to a site that would reject it
while a runnable site exists.  Both the federated simulator and
``tcloud``'s :class:`~repro.tcloud.federation.FederatedClient` route
through this registry.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..sim.simulator import ClusterSimulator
from ..workload.job import Job


RoutingPolicy = Callable[[Sequence[ClusterSimulator], Job], "int | None"]


def _feasible(sites: Sequence[ClusterSimulator], job: Job) -> list[int]:
    return [index for index, sim in enumerate(sites) if sim.statically_feasible(job)]


def route_home(sites: Sequence[ClusterSimulator], job: Job) -> int | None:
    """Degenerate baseline: everything to the first site, feasible or not.

    Models a fleet without federation — remote sites exist (and count in
    the fleet's total GPU-time) but receive nothing.  The gap between
    this and any real policy is the goodput the federation recovers.
    """
    return 0


def route_first_feasible(sites: Sequence[ClusterSimulator], job: Job) -> int | None:
    """First site in declaration order whose hardware can run the job."""
    feasible = _feasible(sites, job)
    return feasible[0] if feasible else None


def route_least_queued(sites: Sequence[ClusterSimulator], job: Job) -> int | None:
    """Feasible site with the shallowest queue relative to its size."""
    feasible = _feasible(sites, job)
    if not feasible:
        return None
    return min(
        feasible,
        key=lambda index: (
            sites[index].scheduler.queue_depth
            / max(1, sites[index].cluster.total_gpus),
            index,
        ),
    )


def route_most_free(sites: Sequence[ClusterSimulator], job: Job) -> int | None:
    """Feasible site with the most free healthy GPUs right now."""
    feasible = _feasible(sites, job)
    if not feasible:
        return None
    return min(
        feasible,
        key=lambda index: (-sites[index].cluster.free_gpus, index),
    )


def route_goodput_aware(sites: Sequence[ClusterSimulator], job: Job) -> int | None:
    """Feasible site with the lowest committed load per healthy GPU.

    Commitment counts GPUs in use *plus* the GPU demand already queued —
    the capacity this job would compete with — normalised by healthy
    capacity, so a small healthy site is not mistaken for an idle one and
    a degraded site (failures pending repair) is discounted.  This is the
    routing analogue of maximising the fleet's efficiency factor:
    spreading committed load keeps every site's served/healthy ratio up
    without stacking queues anywhere.
    """
    feasible = _feasible(sites, job)
    if not feasible:
        return None

    def committed_per_healthy(index: int) -> float:
        sim = sites[index]
        queued_demand = sum(queued.num_gpus for queued in sim.scheduler.queue)
        committed = sim.cluster.used_gpus + queued_demand + job.num_gpus
        return committed / max(1, sim.cluster.healthy_gpus)

    return min(feasible, key=lambda index: (committed_per_healthy(index), index))


#: Registry keyed by the policy names :class:`~repro.federation.spec.
#: FederationSpec` accepts.
ROUTING_POLICIES: dict[str, RoutingPolicy] = {
    "home": route_home,
    "first-feasible": route_first_feasible,
    "least-queued": route_least_queued,
    "most-free": route_most_free,
    "goodput-aware": route_goodput_aware,
}
