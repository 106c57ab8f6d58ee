"""The machine's speed, sampled throughout a run, and the clock the
benchmark times with.

On a shared host the same deterministic work ran up to 1.5x slower in
one process than in the next, and its speed changed from second to
second within a process, while its CPU time tracked its wall time: the
host's speed changes, not the scheduling. Minimums and medians within a
run cannot remove a change that lasts the whole run. So a fixed
pure-Python reference task, which does the kind of work the package does
(bitmask recursion, dict memoization, small frozensets) and never calls
it, runs from a SIGPROF handler every SAMPLE_EVERY_S seconds of the
process's CPU time, and each interval the benchmark reports is scaled by
the speed measured around it: REFERENCE_S over the median time of the
NEAREST samples. A figure so scaled reads as if measured at the speed at
which the reference task takes REFERENCE_S. In six processes certifying
the same cuts, the raw time of a 0.45 s batch moved by 12% (quartile
spread of the process medians) and the scaled time by 2%.

The handler's own time is kept out of every interval read from
``clock``, and the reference runs with the garbage collector off, so
that it does not collect the program's heap.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# the reference task's time on the 2-CPU host the benchmark was written
# on (Python 3.11) when it was quiet, at which speed the acceptance sweep
# takes about 25 s; how often the task runs, and over how many samples
# the speed at a moment is taken
REFERENCE_S = 0.00175
SAMPLE_EVERY_S = 0.05
NEAREST = 5

# the reference graph: vertex v is joined to v +- 1, 5 and 7 (mod 18)
_ADJ = [sum(1 << ((v + d) % 18) for d in (1, 5, 7, -1, -5, -7))
        for v in range(18)]


def reference() -> tuple[int, int]:
    """A fixed task: count the perfect matchings of an 18-vertex graph
    by memoized bitmask recursion, then build a few hundred frozensets."""
    memo: dict[int, int] = {}

    def count(mask: int) -> int:
        if mask == 0:
            return 1
        got = memo.get(mask)
        if got is not None:
            return got
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        nbrs = _ADJ[v] & rest
        total = 0
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            total += count(rest & ~low)
        memo[mask] = total
        return total

    seen = {frozenset((i % 31, i % 17, i % 7)) for i in range(600)}
    return count((1 << 18) - 1), len(seen)


class _Sampler:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (clock(), seconds)
        self.stolen = 0.0
        self.previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            reference()
            self.samples.append((start - self.stolen,
                                 time.perf_counter() - start))
        finally:
            if collecting:
                gc.enable()
            self.stolen += time.perf_counter() - start


# one per process, as the SIGPROF handler and the interval timer are
_sampler = _Sampler()


def clock() -> float:
    """perf_counter without the time spent sampling the machine's speed."""
    while True:
        stolen = _sampler.stolen
        now = time.perf_counter()
        if stolen == _sampler.stolen:
            return now - stolen


def start() -> None:
    """Start sampling, dropping earlier samples."""
    _sampler.samples = []
    _sampler.previous = signal.signal(signal.SIGPROF, _sampler._handler)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)


def stop() -> list[tuple[float, float]]:
    """Stop sampling; the (clock(), seconds) samples taken since ``start``."""
    signal.setitimer(signal.ITIMER_PROF, 0)
    signal.signal(signal.SIGPROF, _sampler.previous or signal.SIG_DFL)
    return list(_sampler.samples)


class Speed:
    """The machine's speed through a run, from its samples."""

    def __init__(self, samples: list[tuple[float, float]]):
        samples = sorted(samples)
        self.at = [at for at, _ in samples]
        self.took = [took for _, took in samples]

    def factor(self, t: float) -> float:
        """REFERENCE_S over the median of the NEAREST samples around clock
        reading t; 1 without samples."""
        if not self.took:
            return 1.0
        i = bisect.bisect(self.at, t) - NEAREST // 2
        i = max(0, min(i, len(self.took) - NEAREST))
        return REFERENCE_S / statistics.median(self.took[i:i + NEAREST])

    def scaled(self, t0: float, t1: float) -> float:
        """The interval between clock readings t0 and t1, at the
        reference speed: split at the samples inside it, each piece
        scaled by the speed at its middle."""
        cuts = self.at[bisect.bisect(self.at, t0):bisect.bisect(self.at, t1)]
        edges = [t0, *cuts, t1]
        return sum((b - a) * self.factor((a + b) / 2)
                   for a, b in zip(edges, edges[1:]))
