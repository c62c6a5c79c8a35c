"""Host-speed calibration: a fixed pure-Python kernel timed while ops run.

The benchmark host is a shared VM whose speed drifts by 10-30 % from one
second to the next, in CPU time as much as in wall time.  Each workload
process samples :func:`kernel_seconds` with a :class:`Sampler`, and the
runner divides every time the process reports by
``median(kernel) / REFERENCE_S``.  A slow spell then slows the kernel and
the ops alike and cancels out, while a change to the program leaves the
kernel alone: it runs no program code, and the cyclic GC is off while it
runs, so the program's heap cannot charge it a collection.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

#: the kernel's median time on the reference machine (2-vCPU VM, Python 3.11.7);
#: times are reported as if the host ran at that speed
REFERENCE_S = 0.005

_TABLE = tuple((index * 40503) & 0xFFFF for index in range(256))


def _kernel(rounds: int = 2400) -> int:
    """Table lookups, bit loops and list updates: interpreter work like the program's."""
    table = _TABLE
    row = [0] * 64
    acc = 0
    for index in range(rounds):
        value = table[(index * 2654435761) & 255]
        mask = value | (acc & 0xFF)
        while mask:
            low = mask & -mask
            acc = (acc ^ (low * 31)) & 0xFFFFF
            mask ^= low
        row[value & 63] += 1
    return acc + sum(row)


def kernel_seconds() -> float:
    """Wall time of one kernel run, with the cyclic GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        _kernel()
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Kernel samples spread over the ops, and a clock that leaves them out.

    While entered, a ``SIGALRM`` handler times the kernel every *interval*
    seconds, inside whatever op is running; :meth:`sample` takes one
    directly.  :meth:`clock` is ``perf_counter`` minus the time spent
    sampling so far, so an op or span timed with it excludes the samples
    taken during it.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples = []
        self.spent = 0.0
        self._sampling = False

    def clock(self) -> float:
        return perf_counter() - self.spent

    def sample(self, *_signal) -> None:
        if self._sampling:  # a tick that lands inside a sample is skipped
            return
        self._sampling = True
        started = perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += perf_counter() - started
        self._sampling = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
