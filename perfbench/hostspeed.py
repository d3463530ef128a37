"""Host-speed sampling, so host times from a shared machine compare.

The speed of a shared host swings by up to 2x within seconds.  While timed
code runs, :class:`HostSpeed` times one fixed calibration slice (which runs
no program code) every ``SAMPLE_INTERVAL_S`` of CPU time, from a SIGPROF
handler.  :meth:`HostSpeed.rescale` turns the seconds measured around the
block into work seconds (the slices taken out) and into those seconds on
a host where one slice takes ``NOMINAL_SLICE_S``.

Only the standard library is imported, so a set-up probe can start
sampling before it imports anything heavy.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

SAMPLE_INTERVAL_S = 0.025
NOMINAL_SLICE_S = 0.0007


def calibration_slice() -> None:
    """Dict, heap and float work, the mix of the simulator's hot loops."""
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(2_000):
        table[i & 255] = acc
        acc += table.get((i * 7) & 255, 0.0) * 0.5 + 1.0
        if i & 7 == 0:
            heapq.heappush(heap, (acc, i))
            if len(heap) > 32:
                heapq.heappop(heap)


class HostSpeed:
    """Samples the host's speed while the ``with`` block runs."""

    def __init__(self, slices: list[float] | None = None):
        self.slices: list[float] = slices if slices is not None else []

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        calibration_slice()
        self.slices.append(time.perf_counter() - t0)

    def rescale(self, seconds: float) -> tuple[float, float]:
        """``seconds`` measured around the block minus the slices, and that
        rescaled to the nominal host speed."""
        work = seconds - sum(self.slices)
        if not self.slices:
            return work, work
        return work, work * NOMINAL_SLICE_S / statistics.mean(self.slices)
