"""Multi-cluster federation: route submissions across cluster instances.

``tcloud`` can target different cluster instances of the platform by
changing one configuration line; this module automates the choice.  A
:class:`FederatedClient` holds one client per profile and routes each
submission by one of the federated simulator's policies
(:data:`~repro.federation.routing.ROUTING_POLICIES`: ``least-queued``, the
default and what users do by hand, ``most-free``, ``first-feasible`` and
``goodput-aware``; ``home`` is refused, as profiles are peers with no home
site), applied to the profiles' simulated clusters in profile order.

Clusters whose validation fails (missing GPU type, oversized request, a
partition that is unknown there or refuses the job) are excluded before
the policy ranks the rest.  The router remembers where each job landed,
so ``status``/``logs``/``wait`` proxy transparently.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..controlplane.lifecycle import Transition
from ..errors import ConfigError, SchemaError, SimulationError
from ..federation.routing import ROUTING_POLICIES
from ..ids import JobId
from ..schema.taskspec import TaskSpec
from ..schema.validate import validate_spec
from .client import TcloudClient
from .config import TcloudConfig
from .frontend import JobStatus


@dataclass(frozen=True)
class RoutingDecision:
    """Where a submission went, and why."""

    profile: str
    reason: str
    considered: tuple[str, ...]
    excluded: tuple[str, ...]


class FederatedClient:
    """Submits to the best of several cluster instances."""

    def __init__(
        self,
        config: TcloudConfig,
        profiles: list[str] | None = None,
        policy: str = "least-queued",
        frontends: dict[str, "object"] | None = None,
    ) -> None:
        """Build one client per profile.

        ``frontends`` optionally injects a pre-built frontend per profile
        (heterogeneous simulated sites); otherwise each profile's endpoint
        resolves through the ordinary shared-session mechanism — give the
        profiles distinct ``sim://`` endpoints or they will share one
        cluster.
        """
        if policy == "home":
            raise ConfigError("routing policy 'home' needs a home site; tcloud profiles are peers")
        if policy not in ROUTING_POLICIES:
            raise ConfigError(
                f"unknown routing policy {policy!r}; known: {sorted(ROUTING_POLICIES)}"
            )
        names = profiles or sorted(config.profiles)
        if not names:
            raise ConfigError("federation needs at least one profile")
        self.policy = policy
        frontends = frontends or {}
        self.clients: dict[str, TcloudClient] = {
            name: TcloudClient(config, profile=name, frontend=frontends.get(name))
            for name in names
        }
        self._home_of: dict[JobId, str] = {}

    # -- routing -----------------------------------------------------------------

    def _feasible(self, spec: TaskSpec) -> tuple[list[str], list[str]]:
        feasible, excluded = [], []
        for name, client in self.clients.items():
            issues = validate_spec(spec, client.frontend.cluster)
            if any(issue.severity == "error" for issue in issues):
                excluded.append(name)
            else:
                feasible.append(name)
        return feasible, excluded

    def route(self, spec: TaskSpec) -> RoutingDecision:
        """Pick the destination cluster for *spec* without submitting."""
        feasible, excluded = self._feasible(spec)
        policy = ROUTING_POLICIES[self.policy]
        chosen = None
        if feasible:
            # The policy sees the feasible sites in profile order, so ties
            # break by the order the clients were declared, never by name.
            frontends = [self.clients[name].frontend for name in feasible]
            probe = frontends[0].job_for(spec, "route-probe")
            chosen = policy([frontend.sim for frontend in frontends], probe)
        if chosen is None:
            raise SchemaError(
                f"task {spec.name!r} is infeasible on every federated cluster "
                f"({sorted(self.clients)})"
            )
        headline = (policy.__doc__ or "").strip().splitlines()[0]
        return RoutingDecision(
            profile=feasible[chosen],
            reason=f"{self.policy}: {headline}",
            considered=tuple(feasible),
            excluded=tuple(excluded),
        )

    # -- verbs (proxying) ------------------------------------------------------------

    def submit(self, spec: TaskSpec, **kwargs) -> tuple[JobId, RoutingDecision]:
        decision = self.route(spec)
        job_id = self.clients[decision.profile].submit(spec, **kwargs)
        federated_id = f"{decision.profile}/{job_id}"
        self._home_of[federated_id] = decision.profile
        return federated_id, decision

    def _resolve(self, federated_id: JobId) -> tuple[TcloudClient, JobId]:
        home = self._home_of.get(federated_id)
        if home is None:
            raise SimulationError(f"unknown federated job {federated_id}")
        return self.clients[home], federated_id.split("/", 1)[1]

    def status(self, federated_id: JobId) -> JobStatus:
        client, job_id = self._resolve(federated_id)
        return client.status(job_id)

    def logs(self, federated_id: JobId, tail: int = 5) -> dict[str, list[str]]:
        client, job_id = self._resolve(federated_id)
        return client.logs(job_id, tail=tail)

    def history(self, federated_id: JobId) -> list[Transition]:
        client, job_id = self._resolve(federated_id)
        return client.history(job_id)

    def kill(self, federated_id: JobId) -> JobStatus:
        client, job_id = self._resolve(federated_id)
        return client.kill(job_id)

    def wait(self, federated_id: JobId, **kwargs) -> JobStatus:
        client, job_id = self._resolve(federated_id)
        return client.wait(job_id, **kwargs)

    def advance_all(self, seconds: float) -> None:
        """Advance simulated time on every federated cluster."""
        for client in self.clients.values():
            client.advance(seconds)

    def cluster_info(self) -> dict[str, dict[str, object]]:
        return {name: client.cluster_info() for name, client in self.clients.items()}
