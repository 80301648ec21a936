"""Property tests: the calendar queue is order-equivalent to the heap.

The engine's contract is exact ``(time, priority, sequence)`` pop order
over whatever is pending.  These tests drive the
:class:`~repro.sim.eventq.CalendarEventQueue` and the reference
:class:`~repro.sim.eventq.HeapEventQueue` through randomized interleaved
push/pop workloads — including same-timestamp ties, same-priority ties,
monotone-clock pushes into the active bucket, and mid-run ``stop()`` —
asserting identical sequences throughout.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.engine import SimulationEngine
from repro.sim.eventq import CalendarEventQueue, HeapEventQueue
from repro.sim.events import Event, JobArrival, SchedulerTick


class _Marker(Event):
    PRIORITY = 35

    def __init__(self, tag: int) -> None:
        self.tag = tag


def _random_entries(rng, count, *, time_scale=1000.0, tie_fraction=0.3):
    """Entries with deliberately heavy (time, priority) collisions."""
    times = np.round(rng.uniform(0.0, time_scale, size=count), 1)
    tie_mask = rng.uniform(size=count) < tie_fraction
    times[tie_mask] = np.round(times[tie_mask])  # pile onto integer instants
    priorities = rng.integers(0, 4, size=count)
    entries = []
    for sequence, (time, priority) in enumerate(zip(times, priorities)):
        entries.append((float(time), int(priority), sequence, None))
    return entries


@pytest.mark.parametrize("seed", range(8))
def test_bulk_push_then_drain_matches_heap(seed):
    rng = np.random.default_rng(seed)
    entries = _random_entries(rng, 500)
    heap, calendar = HeapEventQueue(), CalendarEventQueue()
    for entry in entries:
        heap.push(entry)
        calendar.push(entry)
    popped = []
    while len(calendar):
        assert calendar.peek() == heap.peek()
        popped.append(calendar.pop())
        assert heap.pop() == popped[-1]
    assert popped == sorted(entries, key=lambda e: e[:3])
    assert len(heap) == 0


@pytest.mark.parametrize("seed", range(8))
def test_interleaved_push_pop_matches_heap(seed):
    """Monotone-clock interleaving: pushes never precede the last pop.

    This is the engine's actual usage pattern — handlers push at or after
    the current clock — and exercises the calendar's bisect insertion into
    the active bucket (same-instant SchedulerTick-style pushes included).
    """
    rng = np.random.default_rng(1000 + seed)
    heap, calendar = HeapEventQueue(), CalendarEventQueue()
    sequence = 0
    clock = 0.0
    for _round in range(400):
        action = rng.uniform()
        if action < 0.55 or not len(heap):
            burst = int(rng.integers(1, 6))
            for _ in range(burst):
                # Half the pushes land exactly at the clock (ties with the
                # entry just popped), the rest in the near future.
                if rng.uniform() < 0.5:
                    time = clock
                else:
                    time = clock + float(np.round(rng.exponential(30.0), 1))
                entry = (time, int(rng.integers(0, 4)), sequence, None)
                sequence += 1
                heap.push(entry)
                calendar.push(entry)
        else:
            want = heap.pop()
            got = calendar.pop()
            assert got == want
            clock = want[0]
    remaining_heap, remaining_cal = [], []
    while len(heap):
        remaining_heap.append(heap.pop())
        remaining_cal.append(calendar.pop())
    assert remaining_cal == remaining_heap
    assert len(calendar) == 0


def test_recalibration_preserves_order():
    """Growth past the resize trigger rebuckets without reordering."""
    calendar = CalendarEventQueue(width=1e6)  # degenerate start: one bucket
    heap = HeapEventQueue()
    entries = _random_entries(np.random.default_rng(7), 3000, time_scale=10.0)
    for entry in entries:
        calendar.push(entry)
        heap.push(entry)
    assert calendar.bucket_width != 1e6  # growth forced a recalibration
    while len(heap):
        assert calendar.pop() == heap.pop()


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        CalendarEventQueue().pop()
    assert CalendarEventQueue().peek() is None


def test_engine_on_calendar_vs_heap_identical_dispatch_order():
    """Full engines on both queues dispatch identically, stop() included."""

    def build(queue):
        engine = SimulationEngine(queue=queue)
        order = []
        rng = np.random.default_rng(42)

        def on_marker(now, event):
            order.append((now, event.tag))
            # Handlers reschedule at the current instant and in the future,
            # mimicking SchedulerTick/JobFinish churn.
            if event.tag < 300:
                engine.schedule_at(now, _Marker(event.tag + 1000))
                engine.schedule_in(float(rng.exponential(5.0)), _Marker(event.tag + 1))
            if event.tag == 150:
                engine.stop()

        engine.register(_Marker, on_marker)
        for tag in range(40):
            engine.schedule_at(float(rng.uniform(0, 100)), _Marker(tag))
        return engine, order

    heap_engine, heap_order = build(HeapEventQueue())
    cal_engine, cal_order = build(CalendarEventQueue())
    heap_engine.run()
    cal_engine.run()
    assert heap_order == cal_order  # both halted by the same stop()
    assert heap_engine.now == cal_engine.now
    assert heap_engine.pending == cal_engine.pending
    # Resume after the mid-run stop: the surviving queue state is intact.
    # Every chain that passes through tag 150 re-triggers stop(), so keep
    # resuming until both queues drain, asserting lockstep throughout.
    for _resume in range(100):
        if not heap_engine.pending and not cal_engine.pending:
            break
        heap_engine.run()
        cal_engine.run()
        assert heap_order == cal_order
        assert heap_engine.pending == cal_engine.pending
    assert heap_engine.pending == cal_engine.pending == 0
    assert heap_engine.now == cal_engine.now


def test_engine_queue_telemetry():
    engine = SimulationEngine()
    engine.register(JobArrival, lambda now, event: None)
    engine.register(SchedulerTick, lambda now, event: None)
    for index in range(10):
        engine.schedule_at(float(index), JobArrival(f"job-{index:06d}"))
    assert engine.peak_pending == 10
    engine.run(until=4.0)
    engine.schedule_at(5.0, SchedulerTick())
    engine.run()
    assert engine.events_enqueued == 11
    assert engine.events_processed == 11
    assert engine.peak_pending == 10
