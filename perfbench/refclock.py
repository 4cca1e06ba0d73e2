"""A clock that runs at a fixed reference speed of the interpreter.

Shared machines change speed by up to 1.8x for seconds at a time, when
other load lands on the same physical cores; a benchmark in wall time
then measures the neighbours more than the program.  ``RefClock``
samples the current speed with a short pure-Python reference loop, run
from a SIGALRM handler every ``PERIOD_S`` (one process, no threads),
and advances at wall rate times ``REF_S / reference time``, taking the
median of the last five samples.  It stands still while the loop runs.
An interval read on it is the seconds the work would take at the speed
where the loop takes ``REF_S``: work that got slower still reads
slower, a slower machine moment does not.  The reference loop does not
touch planalg, so no change to the program moves it.
"""

import signal
import statistics
import time

PERIOD_S = 0.025
#: Reference-loop time at the nominal speed (a fast, quiet 2-core host).
REF_S = 2.0e-4


def reference_loop():
    """Small sparse-dict products, the shape of planalg's inner loops.

    The working set is a few small dicts, so the loop's speed follows
    the core it runs on, not the state of the program's caches.
    """
    acc = {}
    for i in range(100):
        a = {i % 7: i, (i + 3) % 5: -i, 2: 1}
        b = {1: 2, -1: i}
        c = {}
        for e1, x1 in a.items():
            for e2, x2 in b.items():
                c[e1 + e2] = c.get(e1 + e2, 0) + x1 * x2
        key = (i % 13, tuple(sorted(c)))
        acc[key] = acc.get(key, 0) + len(c)
    return acc


class RefClock:
    def __init__(self, probing=True):
        """Start at 0; without probing it is the plain wall clock."""
        self.samples = []
        self.factor = 1.0
        self._wall = time.perf_counter()
        self._ref = 0.0
        if probing:
            self._probe()
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def now(self):
        return self._ref + (time.perf_counter() - self._wall) * self.factor

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _on_alarm(self, signum, frame):
        self._probe()

    def _probe(self):
        self._ref = self.now()
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.factor = REF_S / statistics.median(self.samples[-5:])
        self._wall = end
