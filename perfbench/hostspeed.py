"""Host-speed sampling: rescales measured host time to a reference speed.

On a shared host the speed of the same Python code drifts by a third or
more, for seconds to minutes at a time (a busy neighbour on the sibling
hyperthread, frequency changes).  The drift shows in wall time and in CPU
time alike and is not reported as steal time, so no clock removes it, and
a slow stretch can cover a whole benchmark call.

So while a benchmark process runs, :class:`HostSampler` times a fixed
pure-Python loop (:func:`probe_s`, under a millisecond) every
:data:`INTERVAL_S` from a timer signal.  A sample's speed is
``REFERENCE_S / probe time``: 1.0 on a host that runs the loop in
:data:`REFERENCE_S`.  The time of an interval is reported as the host time
it took, less the samples taken inside it, times the mean speed of those
samples (or of the nearest ones, for an interval too short to hold any)::

    reported = (measured - probe time inside) * mean(REFERENCE_S / probe)

The loop touches nothing of the program and runs with the cyclic
collector off, so the code under test can neither speed it up nor slow it
down; it only tracks the host.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import signal
import time
from array import array
from typing import Any, Sequence

#: Probe time that defines the reference speed: the loop's fastest state
#: on a 2 GHz Xeon vCPU.  Reported times are host seconds at that speed.
REFERENCE_S = 0.00075
#: Loop length and the period of the in-process samples.
LOOP = 1000
INTERVAL_S = 0.025
#: Samples a speed estimate uses at least (the nearest ones to a window).
MIN_SAMPLES = 2


def _loop() -> int:
    heap: list[tuple[int, int]] = []
    counts: dict[int, int] = {}
    for i in range(LOOP):
        heapq.heappush(heap, ((i * 7919) % 1013, i))
        key = i & 255
        counts[key] = counts.get(key, 0) + 1
    total = 0
    while heap:
        total += heapq.heappop(heap)[0]
    return total


def probe_s() -> float:
    """One timing of the probe loop, in seconds, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _loop()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class HostSampler:
    """Samples the host speed from ``SIGALRM`` while the process works.

    Python runs the handler between bytecodes of the main thread, so a
    sample never splits an operation of the program; it only pauses it,
    and :meth:`rescale` takes that pause back out.
    """

    def __init__(self, periodic: bool, earlier: Sequence[tuple[float, float]] = ()) -> None:
        """*earlier* holds ``(start, probe seconds)`` samples taken before
        this process started (by its parent, on the same clock); with
        *periodic* off, only :meth:`sample` calls take samples."""
        self.periodic = periodic
        self.starts = array("d", [start for start, _ in earlier])
        self.costs = array("d", [cost for _, cost in earlier])
        self._busy = False
        self._previous: Any = None

    def __enter__(self) -> "HostSampler":
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum: int, frame: object) -> None:
        if not self._busy:  # an alarm due while a sample runs is skipped
            self.sample()

    def sample(self) -> None:
        """Take one sample now."""
        self._busy = True
        try:
            started = time.perf_counter()
            self.costs.append(probe_s())
            self.starts.append(started)
        finally:
            self._busy = False

    def speed(self, start: float, end: float) -> float:
        """Mean speed of the samples in ``[start, end]``, or the nearest ones."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            if lo > 0:
                lo -= 1
            if hi < len(self.starts) and hi - lo < MIN_SAMPLES:
                hi += 1
        if hi == lo:
            raise ValueError("no host-speed samples were taken")
        return sum(REFERENCE_S / self.costs[i] for i in range(lo, hi)) / (hi - lo)

    def probe_time(self, start: float, end: float) -> float:
        """Seconds the samples in ``[start, end]`` took."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(self.costs[lo:hi])

    def rescale(self, start: float, end: float) -> float:
        """Host time of ``[start, end]`` without samples, at the reference speed."""
        return (end - start - self.probe_time(start, end)) * self.speed(start, end)
