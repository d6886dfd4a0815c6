"""Host-speed calibration: report times at a fixed nominal host speed.

The benchmark runs on a few cores of a shared host whose speed drifts
by tens of percent, over seconds and over minutes, as other tenants
load it: on a 2-vCPU cloud VM the same pure-Python loop took 0.38-0.51 s
within 3 s with no steal time (CPU time equal to wall time), and the
host speed of whole 25 s runs ranged 0.62-1.11. So the benchmark
samples the host's speed with :func:`_loop`, a fixed single-threaded
reference loop of interpreter work and small numpy operations -- the
mix the program's hot paths run -- that uses no code of the program,
and reports times in nominal seconds::

    nominal seconds = wall seconds * NOMINAL_S / mean loop seconds

where the mean is over the loops sampled during the run. A slow phase
of the host inflates both and cancels; a change to the program moves
only the wall time. Averaged over ~27 s windows of a four-minute
recording on that VM, the log wall time of a fixed ``pm_trial``-style
and ``fleet``-style operation varied with sd 0.09 and 0.08; scaled by
the loop, with sd 0.02 (slope of log time on log loop time 1.0-1.1).

A workload that runs in one thread samples with :meth:`HostSpeed.every`
(a SIGALRM timer that runs one loop per period wherever the program
is, so slow and fast stretches of a long operation are both sampled);
one with threads of its own calls :meth:`HostSpeed.take` where they are
idle. Sampling time is taken out of the operations' times. Raw wall
times are reported beside the nominal ones; only nominal times are
gated.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from typing import Iterator, List

import numpy as np

#: Definition of nominal host speed: the reference loop takes this long
#: (about its median on an idle 2-vCPU cloud VM, which reads 6.4-9.4 ms
#: over a day).
NOMINAL_S = 0.0080
#: Seconds of wall time between two samples of :meth:`HostSpeed.every`.
PERIOD_S = 0.25

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((20, 20))
_V = _RNG.standard_normal(20)


def _loop() -> float:
    """Seconds one run of the reference loop takes now."""
    t0 = time.perf_counter()
    s = 0.0
    table = {}
    for i in range(20000):
        s += (i * 7) % 13
        table[i & 255] = s
    x = _V
    for _ in range(1500):
        x = np.tanh(_A @ x) + 0.01 * np.maximum(x, 0.0)
    return time.perf_counter() - t0


class HostSpeed:
    """Reference-loop samples taken during a run."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Wall seconds spent sampling (to take out of operation times).
        self.spent_s = 0.0
        self._busy = False

    def take(self) -> None:
        """Run the reference loop once now."""
        if self._busy:  # a timer signal during a sample
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.samples.append(_loop())
        finally:
            self.spent_s += time.perf_counter() - t0
            self._busy = False

    @contextlib.contextmanager
    def every(self, period_s: float = PERIOD_S) -> Iterator["HostSpeed"]:
        """Sample once per ``period_s`` of wall time inside the block.

        Only for the main thread of a process with no other busy
        thread: the sample runs in the signal handler.
        """
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: self.take())
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self) -> float:
        """Nominal seconds per wall second (1.0 = nominal host)."""
        if not self.samples:
            self.take()
        return NOMINAL_S / statistics.fmean(self.samples)
