"""Host-speed calibration: a fixed reference kernel timed between solver calls.

The machine the benchmark was tuned on changes speed by up to 1.8x over
seconds to minutes (see README.md), and the solver calls slow down with it.
So every time of an untraced run is divided by the machine's local speed,
measured by running ``kernel`` (which does not use delayflow) every
``EVERY_S`` seconds of a pass. A time then reads as the time on a machine
that runs the kernel in ``REF_S`` seconds. A change to delayflow cannot
change the kernel's time, so it shows in full.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

#: Seconds of pass time between two kernel runs.
EVERY_S = 0.1
#: A call's speed is the mean over the kernel runs within this many seconds.
WINDOW_S = 0.5
#: Kernel seconds of the reference machine: about the kernel's time on the
#: tuning machine in its fast phase. It only sets the scale of the figures.
REF_S = 0.003

_rng = np.random.default_rng(20181214)
#: The shape of the EC2 counterpart LPs.
_MATRIX = _rng.uniform(1.0, 2.0, size=(44, 64))
_GRAPH: list[list[tuple[int, float]]] = [[] for _ in range(60)]
for _u, _v, _w in zip(
    _rng.integers(0, 60, 600), _rng.integers(0, 60, 600), _rng.uniform(1.0, 10.0, 600)
):
    _GRAPH[int(_u)].append((int(_v), float(_w)))


def kernel() -> float:
    """One run: 150 Gauss-Jordan pivots on a 44x64 matrix (small numpy
    operations, as in the tableau simplex), then Dijkstra with a heap from
    16 sources of a 600-arc graph (pure Python, as in the path code)."""
    m = _MATRIX.copy()
    for p in range(150):
        r, c = p % 44, (p * 7) % 64
        m[r] /= m[r, c]
        row = m[r].copy()
        m -= np.outer(m[:, c], row)
        m[r] = row
    total = float(m[0, 0])
    for s in range(16):
        dist = {s: 0.0}
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, math.inf):
                continue
            for v, w in _GRAPH[u]:
                if d + w < dist.get(v, math.inf):
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        total += sum(dist.values())
    return total


class Clock:
    """Runs the kernel on ``tick`` once ``EVERY_S`` seconds have passed since
    its last run, and records when each run happened and how long it took."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0
        self._last = -math.inf

    def tick(self, force: bool = False) -> None:
        t0 = time.perf_counter()
        if not force and t0 - self._last < EVERY_S:
            return
        kernel()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def slowdown(self, at=None) -> np.ndarray | float:
        """Kernel time over ``REF_S``: at each time in ``at``, averaged over
        the runs within ``WINDOW_S`` (the next run if none is); with no
        ``at``, averaged over all runs."""
        took = np.asarray(self.took)
        if at is None:
            return float(took.mean()) / REF_S
        at = np.asarray(at, dtype=float)
        t = np.asarray(self.at)
        csum = np.concatenate([[0.0], np.cumsum(took)])
        lo = np.searchsorted(t, at - WINDOW_S)
        hi = np.searchsorted(t, at + WINDOW_S, side="right")
        nearest = np.clip(np.searchsorted(t, at), 0, len(t) - 1)
        empty = hi == lo
        lo = np.where(empty, nearest, lo)
        hi = np.where(empty, nearest + 1, hi)
        return (csum[hi] - csum[lo]) / (hi - lo) / REF_S
