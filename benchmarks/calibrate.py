"""How fast the host runs right now, from a fixed kernel timed beside the work.

On a shared host the same trial batch can take twice as long from one
minute to the next, with CPU time tracking wall time, so the slowdown is
the processor's, not waiting. A benchmark that reports raw wall time then
measures the neighbours more than the program. Timing this fixed kernel
next to each timed call measures the host's current speed, and
`scaled(wall, kernel)` expresses the call's wall time in reference seconds:
seconds on the host at the speed where the kernel takes REF_S.

The kernel mixes the two kinds of work a trial does: interpreter-bound heap
and dict traffic (the exploration, the rank-1 skip loop, quadrature
callbacks) and numpy permutation and scatter over arrays larger than the
caches (pairing, weights). It uses no fpplab code, so a change to the
program never changes the yardstick. Its time is the thread's CPU time,
which excludes waiting for a core or for the interpreter lock.
"""
from __future__ import annotations

import heapq
import random
import statistics
import threading
import time

REF_S = 0.08        # kernel seconds on the reference box (2-core Xeon, CPython 3.11)
_HEAP_ITEMS = 30_000
_ARRAY_ITEMS = 400_000


def kernel_seconds() -> float:
    """CPU seconds the calling thread spends on one run of the fixed kernel."""
    import numpy as np      # late: the benchmark caps BLAS threads before numpy loads

    t0 = time.thread_time()
    rng = random.Random(1)
    heap: list = []
    seen: dict = {}
    for i in range(_HEAP_ITEMS):
        heapq.heappush(heap, (rng.random(), i))
        seen[i] = 2 * i
    while heap:
        seen.get(heapq.heappop(heap)[1])
    perm = np.random.default_rng(1).permutation(_ARRAY_ITEMS)
    partner = np.empty_like(perm)
    partner[perm[0::2]] = perm[1::2]
    partner[perm[1::2]] = perm[0::2]
    return time.thread_time() - t0


def scaled(wall: float, kernel: float) -> float:
    """wall in reference seconds, given the kernel's time beside it."""
    return wall * REF_S / kernel


class Sampler:
    """Runs the kernel every `period` seconds in a thread while a block runs.

    For a call that spreads over a process pool and lasts long enough for
    the host's speed to change under it; mean() is the kernel time to scale
    that call by. The first run starts with the block.
    """

    def __init__(self, period: float = 0.5):
        self.period = period
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:
            self.samples.append(kernel_seconds())
            if self._stop.wait(self.period):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def mean(self) -> float:
        return statistics.fmean(self.samples)
