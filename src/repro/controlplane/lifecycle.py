"""Transition records and the transition log: the one history of a run.

The job state machine itself — :class:`LifecycleState` and
:data:`LEGAL_TRANSITIONS` — lives with the job in
:mod:`repro.workload.job` and is re-exported here.  Every lifecycle move
the control plane makes produces a frozen :class:`Transition` record
carrying the cause, the actor that requested it, and the simulated
timestamp, appended to the run's :class:`TransitionLog`.  Illegal
transitions raise :class:`~repro.errors.IllegalTransitionError` instead of
silently corrupting metrics — the state machine is the contract, not a
convention.

The run's timeline is not a second list: :meth:`TransitionLog.timeline`
derives it on read from the retained records plus a few positional notes
(node_down/node_up events, and upstream edges reported after the cascade
they triggered).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from ..workload.job import LEGAL_TRANSITIONS, LifecycleState

__all__ = [
    "LEGAL_TRANSITIONS",
    "Actor",
    "Cause",
    "LifecycleState",
    "TimelineEvent",
    "Transition",
    "TransitionLog",
]


class Cause(enum.Enum):
    """Why a transition happened (the edge label)."""

    ADMIT = "admit"
    REJECT = "reject"
    PLACE = "place"
    PREEMPT = "preempt"
    PREEMPTION_LIMIT = "preemption_limit"
    NODE_FAILURE = "node_failure"
    COMPLETE = "complete"
    INTRINSIC_FAILURE = "intrinsic_failure"  # the job's own scripted failure
    HARDWARE_FAILURE = "hardware_failure"  # restart budget exhausted
    WALLTIME_LIMIT = "walltime_limit"
    USER_KILL = "user_kill"
    SERVICE_RETIRE = "service_retire"  # serving autoscaler scale-down/horizon
    MIGRATE = "migrate"  # checkpoint-and-migrate to another cluster
    DEPS_HOLD = "deps_hold"  # workflow stage waiting on upstream stages
    DEPS_RELEASE = "deps_release"  # last upstream finished; stage admitted
    UPSTREAM_FAILED = "upstream_failed"  # an upstream stage failed/was killed


class Actor(enum.Enum):
    """Who asked for the transition."""

    USER = "user"
    ADMISSION = "admission"
    SCHEDULER = "scheduler"
    SIMULATOR = "simulator"
    FAILURE_INJECTOR = "failure_injector"
    AUTOSCALER = "autoscaler"
    FEDERATION = "federation"  # the cross-cluster router/migrator


#: Timeline event kind emitted when a job *enters* each state (KILLED is
#: special-cased: entering it from PENDING is a "reject", otherwise "kill").
_TIMELINE_KIND: dict[LifecycleState, str] = {
    LifecycleState.PENDING_DEPS: "hold",
    LifecycleState.ADMITTED: "submit",
    LifecycleState.RUNNING: "start",
    LifecycleState.PREEMPTED: "preempt",
    LifecycleState.RESTARTING: "requeue",
    LifecycleState.FINISHED: "complete",
    LifecycleState.FAILED: "fail",
    LifecycleState.KILLED: "kill",
}


@dataclass(frozen=True)
class TimelineEvent:
    """One timeline entry: a job's lifecycle edge or a node going down/up."""

    time: float
    kind: str  # submit|hold|reject|start|preempt|requeue|complete|fail|kill|node_down|node_up
    subject: str  # job id or node id
    detail: str = ""


@dataclass(frozen=True)
class Transition:
    """One recorded edge of one job's lifecycle."""

    job_id: str
    time: float
    source: LifecycleState
    target: LifecycleState
    cause: Cause
    actor: Actor
    attempt: int  # the job's attempt counter when the edge was taken
    detail: str = ""

    @property
    def timeline_kind(self) -> str:
        if self.target is LifecycleState.KILLED and self.cause is Cause.REJECT:
            return "reject"
        return _TIMELINE_KIND[self.target]

    def oneline(self) -> str:
        """Human-oriented rendering for ``tcloud`` history output."""
        line = (
            f"t+{self.time / 3600.0:7.2f}h  "
            f"{self.source.value:>10s} -> {self.target.value:<10s} "
            f"cause={self.cause.value} actor={self.actor.value}"
        )
        if self.detail:
            line += f"  [{self.detail}]"
        return line


class TransitionLog:
    """Append-only record of every lifecycle transition in a run.

    The single authoritative history: the timeline, churn metrics, the
    ``tcloud history`` verb, and the ops report all derive from it.  The
    timeline (:meth:`timeline`) is derived on read from the records plus
    a short list of positional notes: node failures and repairs
    (:meth:`note_node`), and upstream edges reported after the cascade
    into their dependents (:meth:`hold_back`).

    ``retain_records=False`` keeps every count exact but drops the record
    objects themselves (``records`` stays empty, :meth:`for_job` returns
    nothing, and the timeline holds node events only).  At fleet scale a
    month-long million-job run emits several million transitions —
    gigabytes of :class:`Transition` objects that nothing reads when the
    caller only wants aggregate metrics.
    """

    def __init__(self, retain_records: bool = True) -> None:
        self.retain_records = retain_records
        self.records: list[Transition] = []
        #: The one tally, per (target, cause) edge; every count sums over it.
        self._by_pair: dict[tuple[LifecycleState, Cause], int] = {}
        #: (timeline position in records, node event or held-back record
        #: index), in the order noted.
        self._notes: list[tuple[int, TimelineEvent | int]] = []

    def append(self, transition: Transition) -> None:
        if self.retain_records:
            self.records.append(transition)
        pair = (transition.target, transition.cause)
        self._by_pair[pair] = self._by_pair.get(pair, 0) + 1

    def __len__(self) -> int:
        return self.count()

    def __iter__(self) -> Iterator[Transition]:
        return iter(self.records)

    def count(
        self, target: LifecycleState | None = None, cause: Cause | None = None
    ) -> int:
        """Count by target state and/or cause: a sum over the per-edge
        tally, exact even when record retention is off."""
        return sum(
            count
            for (edge_target, edge_cause), count in self._by_pair.items()
            if (target is None or edge_target is target)
            and (cause is None or edge_cause is cause)
        )

    def for_job(self, job_id: str) -> list[Transition]:
        return [t for t in self.records if t.job_id == job_id]

    def note_node(self, time: float, kind: str, node_id: str) -> None:
        """Note a node_down/node_up event after the records logged so far."""
        self._notes.append((len(self.records), TimelineEvent(time, kind, node_id)))

    def hold_back(self, index: int) -> None:
        """Move record *index* past the records logged after it.

        An upstream's terminal edge triggers its dependents' edges while
        it is being accounted, so they are logged after it; the timeline
        reports the upstream once its whole cascade has happened.
        """
        if index + 1 < len(self.records):
            self._notes.append((len(self.records), index))

    def timeline(self) -> list[TimelineEvent]:
        """Every retained transition as a timeline event, in log order,
        with the noted node events and held-back records placed where
        they were noted."""
        notes_at: dict[int, list[TimelineEvent | int]] = {}
        for position, note in self._notes:
            notes_at.setdefault(position, []).append(note)
        held = {note for _, note in self._notes if isinstance(note, int)}
        events: list[TimelineEvent] = []
        for position in range(len(self.records) + 1):
            for note in notes_at.get(position, ()):
                events.append(
                    note if isinstance(note, TimelineEvent) else _as_event(self.records[note])
                )
            if position < len(self.records) and position not in held:
                events.append(_as_event(self.records[position]))
        return events

    def by_cause(self) -> dict[str, int]:
        """Cause -> count, in first-seen order (reporting)."""
        by_cause: dict[str, int] = {}
        for (_target, cause), count in self._by_pair.items():
            by_cause[cause.value] = by_cause.get(cause.value, 0) + count
        return by_cause


def _as_event(transition: Transition) -> TimelineEvent:
    return TimelineEvent(
        transition.time, transition.timeline_kind, transition.job_id, transition.detail
    )
