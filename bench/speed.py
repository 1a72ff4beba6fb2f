"""Machine-speed probe: report times at a fixed machine speed.

On a shared machine the speed of a core changes by up to about 1.8x within
seconds, as other tenants' work comes and goes on the same physical core;
CPU time moves with wall time, so the scheduler is not the cause.  A run
that happens to see more slow seconds reads slower although `rht` did the
same work.  The probe removes that factor: it times a fixed pure-Python
reference loop (Fraction arithmetic and dict updates, the instruction mix
of `rht`) just before and just after each measured call, and every
INTERVAL_S during it from a SIGALRM handler on the main thread.  The
measured time, less the handler's own time, is scaled by
REFERENCE_S * mean(1 / sample), i.e. to the time the call would take if
every sample had read REFERENCE_S.  REFERENCE_S is the fast-state
(5th-10th percentile) time of the loop on the 2-core machine the benchmark
was defined on, so a figure measured on an uncontended core stays as it
is.  The code under test never runs the loop, so a change to `rht` moves
the scaled time exactly as it moves the raw one.
"""

import signal
import time
from fractions import Fraction

REFERENCE_S = 0.00062
INTERVAL_S = 0.02

clock = time.perf_counter


def reference():
    total = Fraction(0)
    table = {}
    for i in range(1, 300):
        total += Fraction(i % 7, i % 5 + 1)
        table[i % 97] = table.get(i % 97, 0) + i
    return total


class SpeedProbe:
    def __init__(self):
        self.samples = []
        self.stolen = 0.0           # time spent in the SIGALRM handler
        self.on_stolen = None       # called with each handler duration
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def sample(self):
        t0 = clock()
        reference()
        self.samples.append(clock() - t0)

    def _on_alarm(self, signum, frame):
        t0 = clock()
        self.sample()
        spent = clock() - t0
        self.stolen += spent
        if self.on_stolen is not None:
            self.on_stolen(spent)

    def scale(self, first):
        """Factor turning raw time into time at REFERENCE_S, from samples[first:]."""
        samples = self.samples[first:]
        return REFERENCE_S * sum(1.0 / s for s in samples) / len(samples)

    def measure(self, fn):
        """Run fn(); return (its value, raw seconds, seconds at the reference speed)."""
        first = len(self.samples)
        self.sample()
        stolen = self.stolen
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = clock()
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            raw = clock() - t0 - (self.stolen - stolen)
        self.sample()
        return value, raw, raw * self.scale(first)
