"""A clock that reads the host's speed while it times an operation.

The benchmark runs on a few cores of a shared host. Its speed flips
within milliseconds between two states about 1.7 times apart, the host
takes the CPU away for a few milliseconds at a time, and the mix of both
drifts over minutes, so a plain wall time of the same work varies by a
quarter from run to run. This clock samples the host's speed throughout
the timed region and converts the wall time into *host-normalised
seconds*: the time the operation would have taken on a host that runs
the reference task in ``REF_NOMINAL_S`` on average.

The reference task is a fixed piece of pure-Python work of the kind the
program does (tuple-keyed dicts, small ``Fraction`` sums, calls), about
half a millisecond long.  ``Clock.start`` runs it once, a ``SIGALRM``
timer runs it again every ``TICK_S`` while the operation runs, and
``Clock.stop`` runs it once more.  The region's wall time, the
reference runs inside it left out, is divided by the mean of all those
samples and multiplied by ``REF_NOMINAL_S``.  The samples are spread
evenly in time, so their mean follows both the host's fast and slow
states and the moments the host takes the CPU away, in the shares the
operation met them.  Sampling costs about 3% more wall time, which is
not counted.

Only the main thread of a process may use the clock, and only one clock
may run at a time.
"""

from __future__ import annotations

import atexit
import signal
import statistics
import time
from fractions import Fraction

TICK_S = 0.02
# A round figure near the reference task's median time, between the
# program's operations, on the Intel Xeon 2-CPU virtual machine the
# benchmark was defined on: there, host-normalised seconds read about
# like wall seconds.
REF_NOMINAL_S = 0.0005

_perf = time.perf_counter


@atexit.register
def _disarm() -> None:
    # A process that exits while a clock runs (an error during set-up,
    # say) must not die of SIGALRM once its handlers are gone.
    signal.setitimer(signal.ITIMER_REAL, 0, 0)


def reference_task() -> Fraction:
    d: dict = {}
    s = Fraction(0)
    for i in range(120):
        key = (i, i % 7)
        d[key] = d.get(key, 0) + i
        s += Fraction(i, i + 3)
    return s


def _sample() -> tuple[float, float, float]:
    """Run the reference task: (start, duration, end)."""
    t0 = _perf()
    reference_task()
    t1 = _perf()
    return t0, t1 - t0, t1


class Clock:
    """Times one region: ``start()``, the work, ``stop()`` -> (raw, norm).

    ``raw`` is the wall time of the work in seconds, the reference runs
    left out; ``norm`` is ``raw * REF_NOMINAL_S / mean(refs)``, the same
    time in host-normalised seconds.  ``refs`` keeps every reference
    sample taken, ``sampling_s`` the wall time they took.
    """

    def __init__(self, tick_s: float = TICK_S) -> None:
        self.tick_s = tick_s
        self.refs: list[float] = []
        self.sampling_s = 0.0
        self._running = False

    def _take(self) -> None:
        t0, r, t1 = _sample()
        self.refs.append(r)
        self.sampling_s += t1 - t0

    def _on_tick(self, signum, frame) -> None:
        if self._running:
            self._take()

    def start(self) -> None:
        self._take()
        self._old = signal.signal(signal.SIGALRM, self._on_tick)
        self._running = True
        self._t0 = _perf()
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)

    def stop(self) -> tuple[float, float]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._running = False
        t1 = _perf()
        inside = self.sampling_s - self.refs[0]
        self._take()
        signal.signal(signal.SIGALRM, self._old)
        raw = t1 - self._t0 - inside
        return raw, raw * REF_NOMINAL_S / statistics.fmean(self.refs)
