"""The cluster control plane: controller, transition log, snapshots.

One typed path for every job-state mutation in the simulated cluster —
scheduler placements, quota preemptions, failure recovery, serving
autoscaling, and user kills all flow through :class:`ClusterController`,
which checks each move against :data:`LEGAL_TRANSITIONS`, moves
``Job.lifecycle``, and appends it to the authoritative
:class:`TransitionLog`.
"""

from .controller import ClusterController, ReplicaHost
from .lifecycle import (
    LEGAL_TRANSITIONS,
    Actor,
    Cause,
    LifecycleState,
    TimelineEvent,
    Transition,
    TransitionLog,
)
from .snapshot import SimSnapshot, fork, snapshot

__all__ = [
    "Actor",
    "Cause",
    "ClusterController",
    "LEGAL_TRANSITIONS",
    "LifecycleState",
    "ReplicaHost",
    "SimSnapshot",
    "TimelineEvent",
    "Transition",
    "TransitionLog",
    "fork",
    "snapshot",
]
