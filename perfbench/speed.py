"""Host-speed probe: rescales measured times to a reference host speed.

The benchmark was written on a shared VM whose vCPUs ran the same
single-threaded code at two speeds, about 1.8x apart, switching every few
seconds, and for stretches every few milliseconds, as other tenants came
and went; the switching showed in CPU time as much as in wall time.
Repeating the work and taking medians did not remove it, because a whole
run could fall into the slow phase.

So every timed process also runs a small fixed kernel (exact Fraction sums
that import nothing from ``g2lift``) from a ``SIGVTALRM`` handler, every
``INTERVAL_S`` of the process's own CPU time (about 2% of it).  Each
probe gives the host's speed at that moment, ``REF_PROBE_S / probe time``.  A measured interval
loses the time spent in probes during it and is multiplied by the speed
around it: the result is the time the same work takes on the reference
host at full speed.  Over a minute of alternating a structure check with
the kernel, the check took 34-62 ms while its ratio to the kernel stayed
within 31-38.

The kernel does not depend on ``g2lift``, so a change to the program moves
the rescaled times as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# Median probe time on a 2-vCPU Intel Xeon VM (Python 3.11.7) in its fast
# phase; rescaled times are in seconds of that host at that speed.
REF_PROBE_S = 1.0e-3
INTERVAL_S = 0.05
KERNEL_TERMS = 400
# The speed of an interval is the mean over the probes from WINDOW_S
# before it to WINDOW_S after it.  The speed can flip every few
# milliseconds for a while, faster than any probe rate the run can
# afford, so a single nearby probe says little about a short op; the mean
# over half a second says how much of that time the host ran slow.
WINDOW_S = 0.25


def kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, KERNEL_TERMS):
        s += Fraction(1, i)
    return s


class SpeedProbe:
    def __init__(self):
        self.at: list[float] = []  # perf_counter midpoint of each probe
        self.speed: list[float] = []  # REF_PROBE_S / probe time
        self.spent = 0.0  # seconds spent inside probes
        self._busy = False

    def probe(self, *_):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.at.append((t0 + t1) / 2)
            self.speed.append(REF_PROBE_S / (t1 - t0))
            self.spent += t1 - t0
        finally:
            self._busy = False

    def start(self):
        signal.signal(signal.SIGVTALRM, self.probe)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        self.probe()

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)
        self.probe()

    def speed_over(self, t0: float, t1: float) -> float:
        """The host speed over [t0, t1] (perf_counter seconds)."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        if lo == hi:  # no probe that close: the nearest one
            i = min(lo, len(self.at) - 1)
            if i > 0 and t0 - self.at[i - 1] < self.at[i] - t1:
                i -= 1
            return self.speed[i]
        return statistics.fmean(self.speed[lo:hi])
