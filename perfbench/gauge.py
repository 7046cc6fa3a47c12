"""A fixed reference task that measures how fast the host runs right now.

On a shared host the speed of the CPU and its caches changes by tens of
percent from one stretch of seconds to the next, with other tenants' load,
and whole runs of the benchmark land in fast or slow stretches.  The
workloads time this task between their phases, in the measuring process
and thread (so on the same CPU as an in-process phase), and scale each
phase by it (see ``offline.py`` and ``online.py``), so that their figures
follow the program rather than the host.  The task does not call the
program: a change to ``src/`` cannot change its time.

The task mixes interpreted integer arithmetic, dict lookups and set tests
(the kind of work the query path does in Python) with small numpy sorts.
It allocates no container objects, so the garbage collector's work, which
grows with the program's heap, stays out of it, and its data takes well
under a megabyte, so the workload's peak RSS does not move.
"""

from __future__ import annotations

import time

import numpy as np

#: A gauge reading as on a host that is neither fast nor slow for this one;
#: the unit of the slowdown.  A fixed number, never recalibrated per run.
NOMINAL_S = 0.020

_ROUNDS = 12


class Gauge:
    """Times the reference task; ``readings`` holds every time, in seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20180611)
        self.table = {int(key): i for i, key in enumerate(rng.integers(0, 1 << 30, size=2048))}
        self.keys = list(self.table)
        self.sets = [frozenset(rng.integers(0, 400, size=20).tolist()) for _ in range(64)]
        self.array = rng.integers(0, 1 << 40, size=4096)
        self.readings: list[float] = []
        self._task()  # first touch of the data is not a reading

    def _task(self) -> int:
        acc = 0
        table, sets = self.table, self.sets
        for _ in range(_ROUNDS):
            for key in self.keys:
                acc = (acc * 31 + table[key]) & 0xFFFF
            for x in sets:
                for y in sets:
                    acc += x.isdisjoint(y)
            acc += int(np.sort(self.array)[acc & 0xFFF] & 1)
        return acc

    def read(self) -> float:
        start = time.perf_counter()
        self._task()
        self.readings.append(time.perf_counter() - start)
        return self.readings[-1]

    def slowdown(self, first: int, last: int) -> float:
        """Mean of readings ``first`` and ``last`` over ``NOMINAL_S``."""
        return (self.readings[first] + self.readings[last]) / (2.0 * NOMINAL_S)
