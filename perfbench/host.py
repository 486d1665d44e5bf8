"""Host speed reference: a fixed kernel timed between repetitions of a run.

On a shared machine the speed a process gets drifts with the neighbours'
load: over one hour on a shared 2-core machine the same training epoch
took from 0.42 s to 0.63 s, and a run's fastest epoch moved by 27% between
runs a minute apart.  No statistic over a 20-second run removes drift that
lasts longer than the run.

So every run also times a fixed kernel between repetitions of its work
(after each epoch, open-loop window or generation call), outside the timed
work.  The kernel mixes what the program does: small numpy products and
element-wise ops like a GRU step, and heap operations like the event
simulator.  The run's times are scaled by ``(NOMINAL_S / median kernel
time) ** elasticity``, so they read as on a host that runs the kernel in
``NOMINAL_S``; the raw times and the kernel's median are kept in the
result's details.  The elasticity is how strongly a workload's time
follows the host's state, fitted per workload (see ``workloads.py``): the
machine switched between a slow state (kernel 30-32 ms) and a fast one
(18-21 ms), and training time moved by less than the kernel's.  The kernel
is benchmark code, the same on both sides of any comparison, so only the
program's own time moves a scaled metric.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

#: Kernel time the scaled metrics are expressed at (about its time on an
#: unloaded 2-core machine of the kind the benchmark was tuned on).
NOMINAL_S = 0.025
_ROWS, _WIDTH = 512, 32
_STEPS = 60
_HEAP_ITEMS = 6000


class HostSpeed:
    """Times of the reference kernel over one run."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._state = rng.standard_normal((_ROWS, _WIDTH))
        self._weights = rng.standard_normal((_WIDTH, 3 * _WIDTH)) * 0.1
        self._index = np.arange(0, _ROWS, 3)
        self.samples: list[float] = []
        #: (array part, interpreter part) of each sample, for diagnosis.
        self.parts: list[tuple[float, float]] = []

    def sample(self) -> None:
        """Time the kernel once."""
        started = time.perf_counter()
        h = self._state
        for _ in range(_STEPS):
            gates = h @ self._weights
            z = 1.0 / (1.0 + np.exp(-gates[:, :_WIDTH]))
            h = z * h + (1.0 - z) * np.tanh(gates[:, 2 * _WIDTH:])
            np.add.at(h, self._index, h[self._index] * 0.01)
        array_end = time.perf_counter()
        heap: list[tuple[int, int]] = []
        for i in range(_HEAP_ITEMS):
            heapq.heappush(heap, ((i * 7919) % 1013, i))
        while heap:
            heapq.heappop(heap)
        ended = time.perf_counter()
        self.samples.append(ended - started)
        self.parts.append((array_end - started, ended - array_end))

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def median_parts_s(self) -> tuple[float, float]:
        return tuple(statistics.median(part) for part in zip(*self.parts))

    def scale(self, elasticity: float) -> float:
        """Factor from this run's times to times at ``NOMINAL_S``."""
        return (NOMINAL_S / self.median_s()) ** elasticity
