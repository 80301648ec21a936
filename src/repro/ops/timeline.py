"""Timeline analysis and ASCII Gantt rendering.

A run's timeline (``SimulationResult.timeline``, derived on read from
the control plane's transition log) is a stream of
:class:`~repro.controlplane.lifecycle.TimelineEvent` that reconstructs
every job's life as segments — queued, running, terminal — which
:func:`render_gantt` draws as an ASCII chart.  Invaluable for eyeballing
*why* a schedule looks the way it does (who blocked whom, where
preemptions landed) and for teaching examples; not meant for
thousand-job runs.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from ..errors import ValidationError

#: Glyphs per segment state.
_GLYPHS = {"queued": "·", "running": "█", "setup": "░"}
_TERMINAL_MARKS = {"complete": "✓", "fail": "✗", "kill": "†", "reject": "R"}

_JOB_KINDS = {
    "submit",
    "reject",
    "start",
    "preempt",
    "requeue",
    "complete",
    "fail",
    "kill",
}


@dataclass(frozen=True)
class JobSegment:
    """One contiguous phase of a job's life."""

    job_id: str
    state: str  # "queued" | "running"
    start: float
    end: float


#: Same-timestamp ordering: a job submits before it starts, is evicted
#: before it re-starts, and terminates last.
_KIND_ORDER = {
    "submit": 0,
    "reject": 0,
    "preempt": 1,
    "requeue": 1,
    "start": 2,
    "complete": 3,
    "fail": 3,
    "kill": 3,
}


def job_segments(timeline) -> dict[str, list[JobSegment]]:
    """Reconstruct per-job queued/running segments from a timeline.

    Jobs still live at the end of the recording get an open segment
    closed at the last event's time.
    """
    events = sorted(
        (e for e in timeline if e.kind in _JOB_KINDS),
        key=lambda e: (e.time, _KIND_ORDER.get(e.kind, 9)),
    )
    if not events:
        return {}
    horizon = max(e.time for e in events)
    open_state: dict[str, tuple[str, float]] = {}
    segments: dict[str, list[JobSegment]] = {}

    def close(job_id: str, until: float) -> None:
        state = open_state.pop(job_id, None)
        if state is not None and until > state[1]:
            segments.setdefault(job_id, []).append(
                JobSegment(job_id, state[0], state[1], until)
            )
        else:
            segments.setdefault(job_id, [])

    for event in events:
        if event.kind == "submit":
            open_state[event.subject] = ("queued", event.time)
            segments.setdefault(event.subject, [])
        elif event.kind == "reject":
            segments.setdefault(event.subject, [])
        elif event.kind == "start":
            close(event.subject, event.time)
            open_state[event.subject] = ("running", event.time)
        elif event.kind in ("preempt", "requeue"):
            close(event.subject, event.time)
            open_state[event.subject] = ("queued", event.time)
        elif event.kind in ("complete", "fail", "kill"):
            close(event.subject, event.time)
    for job_id in list(open_state):
        close(job_id, horizon)
    return segments


def render_gantt(
    timeline,
    width: int = 72,
    max_jobs: int = 24,
    label_width: int = 12,
) -> str:
    """Render a recorded timeline as an ASCII Gantt chart.

    One row per job (submission order), ``·`` while queued, ``█`` while
    running, with the terminal outcome appended (✓ completed, ✗ failed,
    † killed, R rejected at submission).
    """
    if width < 10:
        raise ValidationError("gantt width must be at least 10")
    segments = job_segments(timeline)
    if not segments:
        return "(empty timeline)\n"
    terminal: dict[str, str] = {}
    submit_order: list[str] = []
    for event in sorted(timeline, key=lambda e: e.time):
        if event.kind in ("submit", "reject") and event.subject not in submit_order:
            submit_order.append(event.subject)
        if event.kind in _TERMINAL_MARKS:
            terminal[event.subject] = _TERMINAL_MARKS[event.kind]

    start = min(e.time for e in timeline)
    end = max(e.time for e in timeline)
    span = max(end - start, 1e-9)

    def column(time: float) -> int:
        return min(width - 1, int((time - start) / span * width))

    out = io.StringIO()
    hours = span / 3600.0
    out.write(
        f"gantt: {len(submit_order)} jobs over {hours:.1f}h "
        f"(each column ≈ {span / width / 60.0:.0f} min)\n"
    )
    shown = submit_order[:max_jobs]
    for job_id in shown:
        row = [" "] * width
        for segment in segments.get(job_id, []):
            glyph = _GLYPHS.get(segment.state, "?")
            lo, hi = column(segment.start), column(segment.end)
            for index in range(lo, max(hi, lo + 1)):
                row[index] = glyph
        mark = terminal.get(job_id, "…")
        label = job_id[-label_width:].rjust(label_width)
        out.write(f"{label} |{''.join(row)}| {mark}\n")
    if len(submit_order) > max_jobs:
        out.write(f"… and {len(submit_order) - max_jobs} more jobs not shown\n")
    return out.getvalue()
