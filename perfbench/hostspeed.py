"""Host-speed calibration: timings in reference seconds.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent within a minute and by more than the benchmark's bounds
between runs minutes apart.  A drift that large moves a raw median as
far as a real regression would.  So every timed unit of work (a replay
pass and its set-ups, or a phase of service sessions) sits between two
runs of a fixed calibration kernel, and its wall time is scaled by
``REFERENCE_S`` over the mean of those two kernel times.  The result
reads as seconds on the host the benchmark was tuned on, at that host's
typical speed.

The kernel is pure Python and independent of the program under test, so
a change to the program moves scaled timings exactly as it moves raw
ones.  It runs only while the program is idle: between replay passes,
and at a barrier where no service session is running.
"""

from __future__ import annotations

import time

import numpy as np

#: The kernel's median wall time on the tuning host (2-vCPU Intel Xeon
#: virtual machine) over the runs that tuned the benchmark.
REFERENCE_S = 0.090

_SETS = 1024
_WAYS = 4
_KEYS = np.random.default_rng(0).integers(0, 1 << 14, 300_000).tolist()


def kernel() -> int:
    """A 4-way set-associative LRU cache over a fixed key stream: the
    interpreter-bound list, branch and integer work the emulator does.
    Returns the hit count, so the work cannot be skipped."""
    sets = [[] for _ in range(_SETS)]
    hits = 0
    for key in _KEYS:
        ways = sets[key & (_SETS - 1)]
        if key in ways:
            ways.remove(key)
            hits += 1
        elif len(ways) == _WAYS:
            ways.pop(0)
        ways.append(key)
    return hits


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class HostClock:
    """Scales for consecutive units of work, one calibration between each.

    Construct it just before the first unit, and call ``scale()`` just
    after each unit ends.
    """

    def __init__(self) -> None:
        self.last_s = kernel_seconds()

    def scale(self) -> float:
        """Reference seconds per wall second for the unit that just ended,
        from the kernel runs before and after it."""
        before, self.last_s = self.last_s, kernel_seconds()
        return REFERENCE_S / ((before + self.last_s) / 2)
