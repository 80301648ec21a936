"""Slurm-style partitions: named node subsets with admission limits.

The campus cluster exposes partitions per hardware pool (e.g. ``a100``,
``v100``, ``consumer``) with different wall-time caps and access tiers.
Partitions only *admit* jobs; resource accounting stays on the nodes, so a
partition is a thin policy object over the cluster.  Admission itself is
asked through :func:`~repro.sched.placement.base.admission_rejection`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..errors import ConfigError
from ..ids import NodeId, PartitionId


@dataclass(frozen=True)
class PartitionSpec:
    """Admission policy for one partition.

    Attributes:
        name: Partition id, referenced from job requests.
        node_ids: Nodes in this partition (a node may appear in several
            partitions, as in Slurm).
        max_walltime_hours: Reject jobs whose requested wall time exceeds
            this (``None`` = unlimited).
        max_gpus_per_job: Reject jobs wider than this (``None`` = unlimited).
        allowed_tiers: Tier names admitted (empty = all tiers).
        default: Jobs that name no partition land here.
    """

    name: PartitionId
    node_ids: tuple[NodeId, ...]
    max_walltime_hours: float | None = None
    max_gpus_per_job: int | None = None
    allowed_tiers: tuple[str, ...] = ()
    default: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("partition name must be non-empty")
        if not self.node_ids:
            raise ConfigError(f"partition {self.name} has no nodes")
        if self.max_walltime_hours is not None and self.max_walltime_hours <= 0:
            raise ConfigError(f"partition {self.name}: max_walltime_hours must be positive")
        if self.max_gpus_per_job is not None and self.max_gpus_per_job <= 0:
            raise ConfigError(f"partition {self.name}: max_gpus_per_job must be positive")

    def rejection_reason(
        self, num_gpus: int, walltime_hours: float, tier: str
    ) -> str | None:
        """Explain why a job is rejected, or ``None`` when admitted."""
        if self.max_gpus_per_job is not None and num_gpus > self.max_gpus_per_job:
            return (
                f"requests {num_gpus} GPUs, partition {self.name} caps jobs "
                f"at {self.max_gpus_per_job}"
            )
        if self.max_walltime_hours is not None and walltime_hours > self.max_walltime_hours:
            return (
                f"requests {walltime_hours:.1f}h wall time, partition "
                f"{self.name} caps at {self.max_walltime_hours:.1f}h"
            )
        if self.allowed_tiers and tier not in self.allowed_tiers:
            return f"tier {tier!r} not admitted by partition {self.name}"
        return None


@dataclass
class PartitionTable:
    """The set of partitions configured on a cluster."""

    partitions: dict[PartitionId, PartitionSpec] = field(default_factory=dict)

    def add(self, spec: PartitionSpec) -> None:
        if spec.name in self.partitions:
            raise ConfigError(f"duplicate partition {spec.name}")
        if spec.default and any(p.default for p in self.partitions.values()):
            raise ConfigError("only one partition may be the default")
        self.partitions[spec.name] = spec

    def get(self, name: PartitionId) -> PartitionSpec:
        try:
            return self.partitions[name]
        except KeyError:
            known = ", ".join(sorted(self.partitions))
            raise ConfigError(
                f"unknown partition {name!r}; known partitions: {known or '(none)'}"
            ) from None

    def default_partition(self) -> PartitionSpec:
        for spec in self.partitions.values():
            if spec.default:
                return spec
        raise ConfigError("no default partition configured")

    def resolve(self, name: PartitionId | None) -> PartitionSpec:
        """Resolve an optional partition name to a spec (default on None)."""
        return self.default_partition() if name is None else self.get(name)

    def __len__(self) -> int:
        return len(self.partitions)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.partitions.values())
