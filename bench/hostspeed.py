"""Host speed reference: scale measured times to a fixed machine speed.

The benchmark runs on a few cores of a shared host whose speed drifts with
the load of other tenants: in one process, the same 20 compositions took
from 100 to 188 ms per 10 s window within seven minutes, and the drift did
not average out over windows of 70 s (see README).  So a fixed reference
loop, which shares no code with the library, is timed every ``EVERY_S``
seconds during a run, and every measured time is scaled by
``NOMINAL_S / r``, where r is the median reference time within
``HALF_WINDOW_S`` of the measurement.  A time then reads as it would on a
host that runs the reference loop in ``NOMINAL_S``; the program's own cost
is untouched, since the reference loop does not call it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

NOMINAL_S = 0.008       # the reference loop's time at the nominal speed
EVERY_S = 0.25          # at most one reference sample per this interval
HALF_WINDOW_S = 2.0     # reference samples within this distance scale a time


class _Node:
    __slots__ = ("name", "color", "edges")

    def __init__(self, name, color):
        self.name = name
        self.color = color
        self.edges = []


def reference_loop():
    """Integer arithmetic, then small objects, tuples, sets, dicts and sorting."""
    s = 0
    for i in range(40000):
        s += i * i % 7
    nodes = [_Node((i, i % 5), i % 3) for i in range(1500)]
    for i, n in enumerate(nodes):
        n.edges.append(nodes[(i * 7 + 3) % 1500])
        n.edges.append(nodes[(i * 11 + 1) % 1500])
    seen, stack, order = set(), [nodes[0]], []
    while stack:
        n = stack.pop()
        if n.name in seen:
            continue
        seen.add(n.name)
        order.append(n.name)
        stack.extend(sorted(n.edges, key=lambda m: (m.color, m.name)))
    table = {n.name: tuple(sorted(m.name for m in n.edges)) for n in nodes}
    return s, len(order), len(table)


def scale_at(starts, durations, start, end) -> float:
    """NOMINAL_S over the median reference time within HALF_WINDOW_S of [start, end]."""
    lo = bisect.bisect_left(starts, start - HALF_WINDOW_S)
    hi = bisect.bisect_right(starts, end + HALF_WINDOW_S)
    if lo == hi:
        raise ValueError(f"no reference sample near [{start}, {end}]")
    return NOMINAL_S / statistics.median(durations[lo:hi])


class HostSpeed:
    """Reference samples of one run, in time order."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._next = float("-inf")

    def sample(self, force: bool = False):
        """Time the reference loop, unless one ran less than EVERY_S ago."""
        if not force and time.perf_counter() < self._next:
            return
        enabled = gc.isenabled()
        gc.disable()            # the library's garbage must not be collected in here
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.durations.append(dt)
        self._next = t0 + EVERY_S

    def scaled(self, start: float, seconds: float) -> float:
        """A time measured from ``start``, at the nominal speed."""
        return seconds * scale_at(self.starts, self.durations, start, start + seconds)

    def summary(self) -> dict:
        q1, med, q3 = statistics.quantiles(self.durations, n=4)
        return {"samples": len(self.durations), "median_ms": med * 1e3, "q1_ms": q1 * 1e3,
                "q3_ms": q3 * 1e3, "min_ms": min(self.durations) * 1e3,
                "max_ms": max(self.durations) * 1e3, "nominal_ms": NOMINAL_S * 1e3}
