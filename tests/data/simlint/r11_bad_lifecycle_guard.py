"""R11 bad: the illegal edge is visible only through a ``.lifecycle`` guard.

``resume`` returns unless the job is FINISHED, so its only possible
from-state is FINISHED — a terminal state with no out-edges — yet it
takes the RUNNING edge.
"""

from repro.controlplane.lifecycle import LifecycleState

LEGAL_TRANSITIONS = {
    LifecycleState.ADMITTED: frozenset({LifecycleState.RUNNING}),
    LifecycleState.RUNNING: frozenset({LifecycleState.FINISHED}),
    LifecycleState.FINISHED: frozenset(),
}


class Controller:
    def resume(self, job):
        if job.lifecycle is not LifecycleState.FINISHED:
            return
        self._apply(job, LifecycleState.RUNNING)

    def place(self, job):
        if job.lifecycle is not LifecycleState.ADMITTED:
            return
        self._apply(job, LifecycleState.RUNNING)

    def complete(self, job):
        if job.lifecycle is LifecycleState.RUNNING:
            self._apply(job, LifecycleState.FINISHED)
