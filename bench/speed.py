"""Machine speed, sampled while a pass runs, to take host speed out of times.

The virtual machine the benchmark was set up on runs the same job up to
twice as slowly in phases that last from a second to minutes (see
README.md), so raw times of two runs differ by far more than a code change
should have to.  While a pass is timed, a real-time interval timer
interrupts it every ``INTERVAL_S`` and runs ``kernel``, a fixed piece of
pure Python that never touches the package: a big-integer dynamic program
over a dict of states and a product of two polynomials with ``Fraction``
coefficients, the two kinds of work the package does.  The kernel's time
measures how fast the machine is at that moment.

The time spent in the kernel (``Sampler.spent_wall``, ``spent_cpu``) is
taken out of the pass, and ``Sampler.scale`` turns the rest into time at
reference speed: the raw time is multiplied by ``REFERENCE_S`` times the
mean of 1/(kernel time) over the samples.  Work
done while the machine is slow counts as if it had run at the reference
speed, so a change in the package moves these times and a change in the
host mostly does not.  Set-up, too short to be sampled on a timer, is
scaled by ``spot_scale``: the median of 21 kernel runs right after it in
the same process.  A sample is taken only between bytecodes, so a long
call into C delays it; the samples are still spread evenly enough over a
pass of seconds.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.2
# kernel time at reference speed: about its median inside a pass on the 2-vCPU
# machine the benchmark was set up on, so that times at reference speed read
# as seconds there
REFERENCE_S = 0.006

_POLY = [((i, j), Fraction(i + 1, j + 2)) for i in range(5) for j in range(5)]


def kernel() -> int:
    rows = {(0, 0): 1}
    total = 0
    for _ in range(40):
        nxt: dict = {}
        for (h, r), c in rows.items():
            for dh, nr in ((1, r + 1), (0, 0), (-1, 0)):
                if h + dh >= 0 and nr <= 3:
                    k = (h + dh, nr)
                    nxt[k] = nxt.get(k, 0) + c
        rows = nxt
        total += rows.get((0, 0), 0)
    prod: dict = {}
    for (i, j), c in _POLY:
        for (k, m), d in _POLY:
            key = (i + k, j + m)
            prod[key] = prod.get(key, 0) + c * d
    return total + len(prod)


def spot_scale(samples: int = 21) -> float:
    """Factor to reference speed from kernel runs made now, in a row.

    Uses the median run: right after set-up a single run is often slowed by
    caches still cold, and the median ignores those.
    """
    kernel()
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return REFERENCE_S / statistics.median(times)


class Sampler:
    """Samples ``kernel`` on a timer between ``start`` and ``stop``."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._old = None

    def _tick(self, signum, frame) -> None:
        c0 = time.process_time()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent_wall += t1 - t0
        self.spent_cpu += time.process_time() - c0

    def start(self) -> None:
        kernel()  # warm: the first call pays for allocating its dicts
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self) -> float:
        """Factor from raw time to time at reference speed (1 without samples)."""
        if not self.samples:
            return 1.0
        return REFERENCE_S * sum(1 / s for s in self.samples) / len(self.samples)
