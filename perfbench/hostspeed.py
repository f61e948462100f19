"""Timing corrected for the speed of a shared host.

The benchmark runs on a few vCPUs of a shared machine whose speed changes
by up to 1.7x within seconds, as neighbours load the cores it shares: the
5 s medians of a fixed small-array numpy loop ranged from 9 to 16 ms within
three minutes on a 2-vCPU Xeon VM.
A job's wall time mixes that with the program's own cost, and medians over
a 30 s run do not average it out.

`timed(fn)` therefore runs a fixed probe, which calls no library code,
from a SIGALRM handler every PROBE_INTERVAL_S while fn runs. Each probe's
duration samples how fast the host is at that moment. The corrected time
is fn's wall time minus the probes' own time, multiplied by the mean of
NOMINAL_PROBE_S / probe time: seconds on a host on which one probe takes
NOMINAL_PROBE_S. The probe touches about 17 KiB of data, so the program's
own use of the caches barely changes it. Of four probes tried (numpy dot
and maximum, argsort and cumsum, a pure-Python loop, and this routing
loop), this one's corrected job times varied least from job to job: a
coefficient of variation of 1.5-3.6% on single7-sweep and multi5-train
where the wall times had 3-6%.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

PROBE_INTERVAL_S = 0.02
NOMINAL_PROBE_S = 2.5e-4  # about the probe's time while a job runs on a quiet 2-vCPU Xeon host

_RNG = np.random.default_rng(0)
_X = _RNG.normal(size=(80, 20))
_FEATURE = _RNG.integers(0, 20, size=256)
_THRESHOLD = _RNG.normal(size=256)


def _probe() -> None:
    """Route 80 rows 12 levels down a fixed 256-node table: small-array
    fancy indexing, like the library's tree routing and extraction loops."""
    pos = np.zeros(80, dtype=np.int64)
    for _ in range(12):
        idx = np.flatnonzero(pos >= 0)
        go_left = _X[idx, _FEATURE[pos[idx]]] <= _THRESHOLD[pos[idx]]
        pos[idx] = np.where(go_left, 2 * pos[idx] + 1, 2 * pos[idx] + 2) % 256


def timed(fn, *args):
    """Run fn(*args); return (result, wall seconds, corrected seconds)."""
    probes, busy = [], False

    def on_alarm(signum, frame):
        nonlocal busy
        if not busy:  # an alarm during a probe is dropped
            busy = True
            t0 = perf_counter()
            _probe()
            probes.append(perf_counter() - t0)
            busy = False

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    t0 = perf_counter()
    try:
        result = fn(*args)
    finally:
        wall = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    work = wall - sum(probes)
    if not probes:  # fn ended before the first alarm
        t1 = perf_counter()
        _probe()
        probes.append(perf_counter() - t1)
    speed = statistics.fmean(NOMINAL_PROBE_S / p for p in probes)
    return result, wall, work * speed
