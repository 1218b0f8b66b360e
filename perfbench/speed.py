"""Host-speed probe: rescale timings to a fixed reference CPU speed.

On a shared VM the CPU speed drifts in bursts of seconds to minutes. On the
2-core Xeon VM the baseline was measured on, a fixed kernel took 7.5 ms in
fast periods and 12.5 ms in slow ones, on both cores at once. Raw medians of
identical work then differed by 20-30% between runs. A timed section cannot
average such bursts away, but it can track them.

While a section runs, SIGALRM fires every PROBE_INTERVAL_S. The handler times
one run of a fixed pure-Python kernel that does not touch the package. Its
working set is a few objects, so its time follows the host's speed and barely
depends on what the interrupted code left in the caches. Each operation's
time, less the probe time inside it, is scaled by REFERENCE_PROBE_S / (the
median probe near the operation). The result is in seconds at the reference
speed: the speed at which the kernel takes REFERENCE_PROBE_S. Raw times are
kept beside the rescaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PROBE_INTERVAL_S = 0.1
PROBE_WINDOW_S = 0.5  # probes this close to an operation describe its speed
MIN_PROBES = 3
KERNEL_STEPS = 12_000
# The kernel's median duration in fast periods on the baseline VM, so that
# rescaled seconds stay close to wall seconds there.
REFERENCE_PROBE_S = 1.0e-3


def kernel() -> int:
    """A fixed ~1 ms interpreter loop on small integers."""
    acc = 0
    for i in range(KERNEL_STEPS):
        acc += (i * 7) % 13
    return acc


class SpeedProbe:
    """Context manager that samples the kernel from a SIGALRM handler."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(MIN_PROBES):
            self._handler(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._handler(None, None)
        return False

    def median_probe(self) -> float:
        """Median probe duration over the whole section."""
        return statistics.median(self.durations)

    def probe_time(self, start: float, end: float) -> float:
        """Total probe time that ran inside [start, end)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.durations[lo:hi])

    def local_speed(self, start: float, end: float) -> float:
        """Median probe duration from PROBE_WINDOW_S before start to as long after end.

        Falls back to the MIN_PROBES probes nearest the interval's middle.
        """
        lo = bisect.bisect_left(self.starts, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + PROBE_WINDOW_S)
        if hi - lo < MIN_PROBES:
            mid = 0.5 * (start + end)
            nearest = sorted(range(len(self.starts)), key=lambda i: abs(self.starts[i] - mid))
            return statistics.median(self.durations[i] for i in nearest[:MIN_PROBES])
        return statistics.median(self.durations[lo:hi])

    def rescale(self, start: float, end: float) -> float:
        """Seconds at the reference speed for an operation that ran in [start, end)."""
        busy = (end - start) - self.probe_time(start, end)
        return busy * REFERENCE_PROBE_S / self.local_speed(start, end)
