"""Host speed, sampled while an iteration runs.

On a shared host the CPU itself slows down when neighbours get busy:
the same iteration takes anywhere from 1x to 2x its quiet time, in
bursts that last from a second to minutes, and CPU time tracks wall
time exactly.  A probe timed before and after an iteration misses the
bursts inside it, so the probe runs *during* the iteration instead: a
timer signal interrupts the program every :data:`INTERVAL_S` and times
a fixed loop of a few hundred microseconds.  The mean probe time over
the iteration, divided by :data:`REFERENCE_S`, is the host slowdown the
iteration ran under; dividing its host seconds by that slowdown gives
*reference-host seconds*.

The probes cost about 1 % of an iteration and are taken in every
iteration, traced or not.  Timer signals are not inherited across
``fork``: a forked worker calls :meth:`HostSpeed.fork_reset` to sample
its own CPU, and its samples join the parent's.
"""

from __future__ import annotations

import os
import signal
import time
from typing import List, Tuple

perf = time.perf_counter

INTERVAL_S = 0.02
#: About the probe's duration on an idle 2.0 GHz Xeon vCPU under Python
#: 3.11 (0.17-0.20 ms): a reference-host second is a host second at
#: this probe speed.
REFERENCE_S = 0.2e-3


def probe() -> None:
    """The fixed work one sample times: dict reads and writes, int math."""
    table: dict = {}
    for i in range(2000):
        table[i & 63] = table.get(i & 63, 0) + i


class HostSpeed:
    """Samples probe times on a timer signal between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: (start of the probe, probe seconds); perf_counter() is
        #: CLOCK_MONOTONIC, so samples of forked workers line up.
        self.samples: List[Tuple[float, float]] = []

    def _sample(self, _signum, _frame) -> None:
        begin = perf()
        probe()
        self.samples.append((begin, perf() - begin))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        # One sample at once, so that even a tiny run has one.
        self._sample(None, None)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def fork_reset(self) -> None:
        """In a forked worker: drop the parent's samples, sample this CPU."""
        if os.getpid() == self.pid:
            return
        self.pid = os.getpid()
        self.samples = []
        self.start()

    def factor(self, begin: float, end: float) -> Tuple[float, float]:
        """``(slowdown, probe share)`` over ``[begin, end)``.

        The probe share is the fraction of each sampled process's time
        spent probing.  Host seconds in the window times ``1 - share``,
        divided by the slowdown, are reference-host seconds.
        """
        window = [d for t, d in self.samples if begin <= t < end]
        mean = sum(window) / len(window)
        return mean / REFERENCE_S, mean / INTERVAL_S
