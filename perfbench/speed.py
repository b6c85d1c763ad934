"""The reference loop that puts every benchmark time on one CPU speed.

The benchmark runs on a shared host whose speed for a single Python thread
drifts by up to a factor of two over minutes.  Raw seconds from two runs of
the same code therefore differ by more than any change worth detecting.  So
each time is taken next to a fixed pure-Python reference loop, and is
reported as

    seconds * REFERENCE_NOMINAL_S * mean(1 / reference loop seconds)

over the loop timings taken around it and, for a long request, every
SAMPLE_INTERVAL_S while it runs (from a SIGALRM handler whose own time is left
out of the request's).  That is seconds at the speed where the loop takes
REFERENCE_NOMINAL_S: a slower program reads slower; a slower host does not.
The raw seconds are printed beside the normalised ones.

The loop does what the series and echelon kernels do: it fills a dict keyed
by tuples, sorts its items and multiplies wide integers.  A loop that stays in
the first-level cache tracks the host's speed for these kernels worse: the
shared host slows memory-bound code more than arithmetic.  The host's speed
also swings by a third between one 10 ms interval and the next, so a request
is sampled densely and its time is the sum over the intervals between
samples; the loop is short so that the sampling costs a few percent.  It runs
with the garbage collector off and frees everything it allocates, so it
leaves the collector's counts where the request had them."""

from __future__ import annotations

import gc
import signal
import statistics
import time

REFERENCE_ITERATIONS = 3000
REFERENCE_REPEATS = 3
# About the loop's median time on the 2-core host the benchmark was tuned on
# (Python 3.11) when it ran fast, so normalised seconds read close to seconds.
REFERENCE_NOMINAL_S = 0.0014
SAMPLE_INTERVAL_S = 0.05


def reference_loop(n=REFERENCE_ITERATIONS):
    table = {}
    for i in range(n):
        key = (i % 97, (i * 31) % 89)
        table[key] = (table.get(key) or 1) * 3 + i
    total = 0
    for _, value in sorted(table.items(), key=lambda kv: kv[1] % 1009):
        total += value * value >> 40
    return total


def reference_seconds(repeats=REFERENCE_REPEATS):
    """Median time of `repeats` runs of the reference loop."""
    enabled = gc.isenabled()
    gc.disable()
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - started)
    if enabled:
        gc.enable()
    return statistics.median(times)


def normalise(seconds, references):
    """`seconds` at the nominal speed, given reference times taken around and
    during it."""
    return seconds * REFERENCE_NOMINAL_S * statistics.fmean(1 / r for r in references)


class Sampler:
    """Context manager that times the reference loop every SAMPLE_INTERVAL_S
    while its block runs.  `refs` holds the timings and `paused` the seconds
    the handler took, which the caller subtracts from the block's time."""

    def __init__(self, interval=SAMPLE_INTERVAL_S):
        self.interval = interval
        self.refs = []
        self.paused = 0.0

    def _sample(self, signum, frame):
        started = time.perf_counter()
        self.refs.append(reference_seconds(repeats=1))
        self.paused += time.perf_counter() - started

    def __enter__(self):
        self.refs = []
        self.paused = 0.0
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False
