"""Host-clock measurement against a co-measured reference loop.

This box's CPU time is not steady: neighbours make identical Python run
1.5-1.8x slower for anything from 0.2 ms to a whole run, so neither a
mean nor a minimum of raw CPU time repeats between runs (README, "Why
the host figures are normalised").  What does repeat is the *ratio*
between the program's CPU time and that of a fixed reference loop run
in the same moments: both slow down together.

A :class:`Calibrator` is ticked by the benchmark's op proxy after every
few ops (a count, so the same ops are followed by a reference loop in
every run; a wall-clock timer was tried and its loops did not slow down
with the program at all), and a :class:`Meter` reports the CPU time of
the code it brackets

* less the reference loops' own share, and
* divided by the machine's slowdown during those same intervals: the
  mean CPU time of the reference loops that ran in them over
  ``REFERENCE_LOOP_S``, the loop's cost on this machine when quiet.

So a host figure reads "CPU seconds at the reference machine's quiet
speed".  ``REFERENCE_LOOP_S`` is a constant, not a measurement: it only
fixes the scale and must not change between two commits under
comparison.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable

#: CPU seconds one ``reference_loop()`` costs on the reference machine
#: (this sandbox, Python 3.11) with no neighbour: the 1st percentile of
#: ~10^5 calls over several runs.
REFERENCE_LOOP_S = 100e-6
#: Fewest reference loops an interval is normalised by on its own.
MIN_TICKS = 16


class _Cell:
    __slots__ = ("count", "total", "payload")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.payload = b""


def _make_reference_loop() -> Callable[[], None]:
    """The reference loop, closed over its own fixed state.

    It does a little of what the program does all day — integer
    arithmetic, dict and attribute access, a heap of timed events driving
    generators, byte slicing — and shares no code with it, so speeding
    the program up never speeds the yardstick up.
    """
    table = {i: i + 1 for i in range(4096)}
    cells = [_Cell() for _ in range(2048)]
    blob = bytes(range(256)) * 1024

    def actor(x: int):
        while True:
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            cell = cells[x & 2047]
            cell.count += 1
            cell.total += 1e-6
            at = (x & 0xFFFF) * 4
            cell.payload = blob[at:at + (x & 1023)]
            yield (x & 255) * 1e-6

    actors = [actor(k) for k in range(64)]
    events = [(next(a), i) for i, a in enumerate(actors)]
    heapq.heapify(events)
    pop, push = heapq.heappop, heapq.heappush

    def reference_loop() -> None:
        x, s = 1, 0
        for _ in range(450):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            s += table[x & 4095]
        for _ in range(50):
            t, i = pop(events)
            push(events, (t + actors[i].send(None), i))

    return reference_loop


class Calibrator:
    """Runs the reference loop whenever ticked and keeps its CPU time."""

    def __init__(self) -> None:
        self._loop = _make_reference_loop()
        self.loop_s = 0.0
        self.ticks = 0

    def tick(self) -> None:
        c0 = time.process_time()
        self._loop()
        self.loop_s += time.process_time() - c0
        self.ticks += 1


class Meter:
    """CPU time of the code between ``start()`` and ``stop()``, summed
    over as many intervals as it is used for."""

    def __init__(self, cal: Calibrator) -> None:
        self.cal = cal
        self.cpu_s = 0.0  # the bracketed code alone, reference loops excluded
        self.wall_s = 0.0
        self.loop_s = 0.0
        self.ticks = 0
        self._at = (0.0, 0.0, 0.0, 0)

    def start(self) -> None:
        cal = self.cal
        self._at = (time.process_time(), time.perf_counter(), cal.loop_s,
                    cal.ticks)

    def stop(self) -> None:
        cal = self.cal
        c0, w0, loop0, ticks0 = self._at
        loop = cal.loop_s - loop0
        self.cpu_s += time.process_time() - c0 - loop
        self.wall_s += time.perf_counter() - w0 - loop
        self.loop_s += loop
        self.ticks += cal.ticks - ticks0

    @property
    def slowdown(self) -> float:
        """Reference-loop CPU time in these intervals over its cost on a
        quiet machine.  Intervals too short to have seen ``MIN_TICKS``
        loops (tiny-scale blocks) use the calibrator's whole history."""
        loop_s, ticks = self.loop_s, self.ticks
        if ticks < MIN_TICKS:
            loop_s, ticks = self.cal.loop_s, self.cal.ticks
        if not ticks:
            raise ValueError("no reference loop has run yet")
        return loop_s / ticks / REFERENCE_LOOP_S

    @property
    def normalised_s(self) -> float:
        return self.cpu_s / self.slowdown
