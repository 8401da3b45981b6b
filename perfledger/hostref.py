"""Host-speed normalisation with a frozen probe kernel.

A cloud VM's speed drifts.  On a 2-core VM, a fixed 0.17 s loop took
0.10-0.18 s over 25 back-to-back runs, with CPU time equal to wall time and
no steal time: the virtual CPU itself ran slower or faster, over periods of
a second or more.  Timing a reference kernel before and after each
iteration misses drift inside the iteration, so the probe runs *during* it:
a wall-clock timer interrupts the main thread every ``PROBE_INTERVAL_S`` and
times one short run of the kernel.  An iteration's time on the nominal host
is its wall time minus the probes' own time, scaled by
``NOMINAL_PROBE_S / typical probe time``, where the typical probe time is
the mean without the fastest and slowest tenth.  Over 40 back-to-back Fig 3
campaigns this cut the standard deviation of log iteration time from 0.14
to 0.035 (0.047 with the median probe time).  In an earlier series of 100
campaigns, dividing by a 0.17 s kernel timed before and after each
iteration left 0.11.

The kernel is pure Python (heap push/pop, dict stores, float arithmetic) so
it can interrupt anything, including an ``import numpy`` in progress.

Do not change this file: every recorded number is relative to it.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import List, Optional

#: Loop steps of one probe.
PROBE_STEPS = 400

#: Wall seconds between probes.  At 0.3-0.5 ms per probe this adds ~2%.
PROBE_INTERVAL_S = 0.025

#: The probe time that defines the nominal host: the fast state of a 2-core
#: cloud VM, so that nominal seconds read close to that VM's best wall time.
NOMINAL_PROBE_S = 0.00036

#: Fewest probes an iteration is normalised by; short iterations are topped
#: up with probes run after them.
MIN_PROBES = 5


def _kernel() -> float:
    state = 12345
    heap: List[tuple] = []
    table = {}
    total = 0.0
    for step in range(PROBE_STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (state % 1000, step))
        table[step & 255] = state
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
        total += (state % 97) * 0.5
    return total + len(table)


def time_probe() -> float:
    """Wall seconds of one probe run."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class SpeedProbe:
    """Times the probe kernel on a wall-clock timer while active.

    Use on the main thread only (``SIGALRM`` handlers run there)::

        probe = SpeedProbe()
        with probe:
            work()
        seconds = probe.normalise(raw_seconds)
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous_handler: Optional[object] = None

    def _on_alarm(self, signum: int, frame: object) -> None:
        self.samples.append(time_probe())

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def normalise(self, raw_seconds: float) -> float:
        """``raw_seconds`` (measured while active) on the nominal host."""
        net = raw_seconds - sum(self.samples)
        while len(self.samples) < MIN_PROBES:
            self.samples.append(time_probe())
        return net * NOMINAL_PROBE_S / self.typical()

    def typical(self) -> float:
        """Mean of the probe times without the fastest and slowest tenth."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return statistics.fmean(ordered[cut:len(ordered) - cut])
