"""Operation timer that rescales its times to a reference host speed.

The benchmark's host changes speed by up to 2x for spells of seconds to
minutes, because of other tenants' load; process CPU time drifts with wall
time, so this is not steal time.  A slow spell can cover a whole run, and
then no choice among the run's own timings (fastest pass, per-operation
minimum) removes it.

So the stopwatch measures the host's speed next to the program.  Every
``SEGMENT_S`` seconds an interval timer interrupts the program and runs
:func:`probe`, a short fixed loop of pure Python and NumPy that calls no
``repro`` code.  The time between two probes is multiplied by
``REFERENCE_PROBE_S`` over the mean of those two probes; an operation's
rescaled time is the sum of these over the stretch it covers.  The probes'
own time is left out of every measured time.  A change to the program cannot
move the probe, so it shows in the rescaled times, while most of the host's
drift cancels.  On a 150-second stream run cut into 10-second windows,
rescaling every 40 ms cut the windows' quartile spread from 0.23 to 0.04;
rescaling once per 1.5-second pass did not help at all.

The interrupt is a ``SIGALRM`` handler, which Python runs between bytecodes
of the main thread; a NumPy call in progress finishes first.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

#: Seconds between two probes.  The host's speed changes within a second, so
#: this must be much shorter than that.
SEGMENT_S = 0.04
#: Seconds :func:`probe` takes on a 2-CPU x86-64 VM when the host is fast.
#: Rescaled times are the seconds the work would take at that speed.
REFERENCE_PROBE_S = 0.0012

_PY_ITERATIONS = 8_000
_A = np.random.default_rng(0).normal(size=(32, 1, 256))
_B = np.random.default_rng(1).normal(size=(1, 16, 256))
# Preallocated, so that the probe's time does not depend on the state the
# program left the allocator in (large temporaries would be fresh mappings
# or reused heap, depending on that history).
_DIFF = np.empty((32, 16, 256))
_SUMS = np.empty((32, 16))


def probe() -> float:
    """Seconds one pass of the fixed reference loop takes right now."""
    started = perf_counter()
    total = 0
    for i in range(_PY_ITERATIONS):
        total += i * i
    for _ in range(4):
        np.subtract(_A, _B, out=_DIFF)
        np.square(_DIFF, out=_DIFF)
        np.sum(_DIFF, axis=2, out=_SUMS)
    return perf_counter() - started


for _ in range(3):  # the first calls run cold
    probe()


class Stopwatch:
    """A clock that leaves out probe time, plus per-operation latencies.

    Times are read on :meth:`now`, which runs from construction and stops
    while a probe runs.  ``start``/``stop`` (or ``time``) bracket each
    operation.  With ``probing=False`` (traced runs, which compare raw times)
    no timer is armed and the rescaled times equal the raw ones.  Only one
    probing stopwatch may run at a time.
    """

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        self._paused = 0.0
        self._begin = perf_counter()
        #: (clock time, probe seconds); a probe at the start and at the end.
        self._probes = [(0.0, probe() if probing else REFERENCE_PROBE_S)]
        #: (start, stop) clock times per operation.
        self._ops: list[tuple[float, float]] = []
        self._op_start = 0.0
        self._end: float | None = None
        if probing:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SEGMENT_S, SEGMENT_S)

    def now(self) -> float:
        """Seconds since construction, probes excluded."""
        while True:
            paused = self._paused
            now = perf_counter()
            if paused == self._paused:
                return now - self._begin - paused

    def _tick(self, signum, frame) -> None:
        started = perf_counter()
        at = started - self._begin - self._paused
        seconds = probe()
        self._probes.append((at, seconds))
        self._paused += perf_counter() - started

    def start(self) -> None:
        self._op_start = self.now()

    def stop(self) -> None:
        self._ops.append((self._op_start, self.now()))

    def time(self, fn, *args):
        """Call ``fn(*args)`` as one operation and return its result."""
        self.start()
        try:
            return fn(*args)
        finally:
            self.stop()

    def finish(self) -> None:
        """Stop the clock; call once, after the pass's last operation."""
        if self.probing:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._end = self.now()
        self._probes.append((self._end, probe() if self.probing else REFERENCE_PROBE_S))
        # _scaled_at(t): rescaled seconds from the start to clock time t.
        self._stamps = [at for at, _ in self._probes]
        self._cumulative = [0.0]
        for (at, before), (later, after) in zip(self._probes, self._probes[1:]):
            self._cumulative.append(self._cumulative[-1] + (later - at) * self._scale(before, after))

    @staticmethod
    def _scale(before: float, after: float) -> float:
        return 2.0 * REFERENCE_PROBE_S / (before + after)

    def _scaled_at(self, t: float) -> float:
        k = min(max(bisect.bisect_right(self._stamps, t) - 1, 0), len(self._stamps) - 2)
        (at, before), (_, after) = self._probes[k], self._probes[k + 1]
        return self._cumulative[k] + (t - at) * self._scale(before, after)

    @property
    def wall(self) -> float:
        """Raw seconds of the pass, probes excluded."""
        return self._end

    @property
    def scaled_wall(self) -> float:
        return self._cumulative[-1]

    @property
    def latencies(self) -> list[float]:
        return [stop - start for start, stop in self._ops]

    @property
    def scaled_latencies(self) -> list[float]:
        return [self._scaled_at(stop) - self._scaled_at(start) for start, stop in self._ops]


def timed_setup(setup, probing: bool = True) -> tuple[float, float]:
    """Run ``setup()`` on a stopwatch; returns (raw, rescaled) seconds."""
    watch = Stopwatch(probing)
    try:
        setup()
    finally:
        watch.finish()
    return watch.wall, watch.scaled_wall
