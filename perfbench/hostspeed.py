"""Host-speed correction for wall times measured on a shared machine.

The benchmark runs in a small virtual machine whose host is shared: the
same op with the same inputs takes anywhere between 1x and 2x its best time,
in phases lasting seconds to minutes, and CPU time swings just as much as
wall time.  A fixed pure-Python reference kernel, timed between ops, slows
down with the host.  Each reported time is therefore the measured wall time
scaled by ``NOMINAL_S / r``, where ``r`` is the kernel's time around the
measurement: the time the work would take on this host when the kernel
takes ``NOMINAL_S``.  The raw wall times are printed beside the corrected
ones.

``NOMINAL_S`` is a fixed constant (the kernel's median time on an Intel
Xeon vCPU of the machine the benchmark was defined on), so a correction
factor near 1 means the host ran at that speed; it cancels out of any
comparison between two runs.
"""

from __future__ import annotations

import cmath
import statistics
from time import perf_counter

NOMINAL_S = 2.1e-3
PROBE_EVERY_S = 0.2  # op time between two probes


def reference_kernel(n: int = 1500) -> complex:
    """Interpreter work of the simulator's kind: complex arithmetic, small
    tuples, sorting and dict updates."""
    acc = 0j
    seen: dict = {}
    for i in range(n):
        z = complex(i % 7, i % 5)
        acc += z * z.conjugate() * cmath.exp(1j * (i % 3))
        key = tuple(sorted((i % 5, i % 3, i % 7)))
        seen[key] = seen.get(key, 0) + 1
    return acc


def probe() -> float:
    """Median time of three reference-kernel runs."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        reference_kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    """Probes the host between pieces of work.  ``factor()`` probes again
    and returns the correction for the work done since the last probe."""

    def __init__(self):
        self.last = probe()
        self.factors: list[float] = []

    def restart(self) -> None:
        self.last = probe()

    def factor(self) -> float:
        now = probe()
        f = NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(f)
        return f
