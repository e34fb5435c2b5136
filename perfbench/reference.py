"""Fixed reference work, timed to follow the speed of a shared box.

The box the benchmark is tuned on shares its cores with other machines, and
its speed drifts by up to a third over minutes, for ncg and for any other
code alike.  Dividing a pass's time by the time of this fixed work, sampled
in the same process every half second during the pass, removes most of that
drift.  The work mixes what ncg spends its time on: bitmask breadth-first
search (the exact verifier's kernel) and building, sorting and hashing
small immutable objects (profiles, contexts, reports).  It does not import
ncg, so its cost changes only with the box and the Python version.
"""

from __future__ import annotations

import gc
import signal
from dataclasses import dataclass
from time import perf_counter, process_time

_N = 14
_ADJ = tuple(
    (1 << (v + 1) % _N) | (1 << (v - 1) % _N) | (1 << (v + 5) % _N) | (1 << (v - 5) % _N)
    for v in range(_N)
)
UNITS_PER_SAMPLE = 40
INTERVAL_S = 0.5


@dataclass(frozen=True, order=True)
class _Edge:
    a: int
    b: int


def _unit() -> int:
    total = 0
    for source in range(_N):
        seen = frontier = 1 << source
        depth = 0
        while frontier:
            depth += 1
            reached = 0
            rest = frontier
            while rest:
                low = rest & -rest
                reached |= _ADJ[low.bit_length() - 1]
                rest ^= low
            frontier = reached & ~seen
            seen |= frontier
            total += depth * frontier.bit_count()
        edges = tuple(sorted(_Edge((source * k) % _N, k) for k in range(1, _N)))
        total += len(frozenset(e.a for e in edges)) + len({e: e.b for e in edges})
    return total


def sample() -> tuple[float, float]:
    """Wall and CPU seconds of one sample of the reference work.

    The garbage collector is paused for the sample: a collection would
    scan the workload's heap, whose size has nothing to do with the box.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        wall, cpu = perf_counter(), process_time()
        for _ in range(UNITS_PER_SAMPLE):
            _unit()
        return perf_counter() - wall, process_time() - cpu
    finally:
        if collecting:
            gc.enable()


class Sampler:
    """Takes a reference sample every ``INTERVAL_S`` seconds while active.

    The samples run in a ``SIGALRM`` handler, so they interleave with
    whatever the process is doing, a single long call included.  ``spent``
    holds the wall and CPU seconds the samples took, for callers to leave
    out of their own measurements.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = (0.0, 0.0)

    def _take(self, *_):
        wall, cpu = sample()
        self.samples.append((wall, cpu))
        self.spent = (self.spent[0] + wall, self.spent[1] + cpu)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._take()
        return False

    def mean(self) -> tuple[float, float]:
        """Mean wall and CPU seconds of a sample."""
        k = len(self.samples)
        return sum(w for w, _ in self.samples) / k, sum(c for _, c in self.samples) / k
