"""A fixed piece of work that measures how fast the shared CPU runs now.

On a shared host other tenants slow the CPU by up to half for seconds at
a time, so a raw time mixes the program's cost with the host's load.
`Clock` runs `probe()` before and after every timed call and, from a
timer signal, every PROBE_INTERVAL_S during a long one; each stretch of
the call between two probes is scaled by PROBE_REFERENCE_S over their
mean.  The result is a time in reference seconds: the time the call
would take on a host where the probe takes PROBE_REFERENCE_S.  The probe
never runs package code, so a change to the package moves the scaled
time as it would move the raw time at a steady CPU speed.
"""

import signal
from time import perf_counter

PROBE_STEPS = 25_000
# The probe's time on an unloaded 2-vCPU Intel Xeon VM under Python 3.11
# (its lower decile over 20 s of repetitions).
PROBE_REFERENCE_S = 0.012
PROBE_INTERVAL_S = 0.25


# The probe's table is made once and its values replaced in place, so
# that a probe landing in the middle of a call allocates nothing that
# outlives it and leaves the child's peak memory where the call puts it.
_TABLE = {(i, j): 0 for i in range(61) for j in range(67)}


def probe() -> float:
    """Seconds spent on tuple keys, dict stores and lookups and
    big-integer arithmetic -- what the package's memos and coefficients
    do."""
    start = perf_counter()
    x = 1
    for i in range(PROBE_STEPS):
        _TABLE[(i % 61, i % 67)] = x
        x = (x * 3 + i) % (1 << 200)
    total = 0
    for key in list(_TABLE)[::3]:
        total += _TABLE[key] & 7
    return perf_counter() - start


class Clock:
    """Times calls in raw and in reference seconds.

    With `in_call` false no probe interrupts a call, and a call is scaled
    by the probes just before and after it only.
    """

    def __init__(self, in_call: bool = True):
        self.in_call = in_call
        self.first = self.last = probe()

    def _tick(self, signum, frame):
        paused = perf_counter()
        speed = probe()
        resumed = perf_counter()
        self.stretches.append((paused - self.resumed, (self.last + speed) / 2))
        self.last, self.resumed = speed, resumed
        self.paused += resumed - paused
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

    def time(self, fn):
        """Run fn(); return its result, its time without the probes and
        that time in reference seconds."""
        self.stretches, self.paused = [], 0.0
        if self.in_call:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)
        start = self.resumed = perf_counter()
        try:
            result = fn()
        finally:
            end = perf_counter()
            if self.in_call:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        speed = probe()
        self.stretches.append((end - self.resumed, (self.last + speed) / 2))
        self.last = speed
        scaled = sum(length * PROBE_REFERENCE_S / mean
                     for length, mean in self.stretches)
        return result, end - start - self.paused, scaled
