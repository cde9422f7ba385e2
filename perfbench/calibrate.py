"""Host seconds at reference machine speed.

Benchmark hosts are often shared virtual machines whose speed drifts
with load the benchmark does not control: on a 2-core Xeon VM the same
simulation took from 6.7 to 10.6 host seconds across runs a few minutes
apart.  :class:`HostClock` therefore follows every timed call with
passes of a fixed pure-Python loop (dicts, a heap, small objects and
float arithmetic, like the simulator) and rescales the timed seconds by
how much slower or faster than its reference time that loop ran.  Over
runs of one fixed workload this cut the spread of host time from 10% to
2%.  The loop never touches the simulator, so a faster simulator still
reads faster.

The simulator feels a speed drift less than the loop does: across 37
benchmark runs of three workloads, its host time moved by 0.66-0.84% for
each 1% move of the loop's, so the rescaling uses :data:`SENSITIVITY`.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, List, Tuple, TypeVar

#: Median seconds of one :func:`calibration_pass` on the reference
#: machine (2-core Intel Xeon, Python 3.11).
REFERENCE_PASS_S = 0.022
#: Calibration time added after each timed call, as a share of its time.
CALIBRATION_SHARE = 0.1
#: Elasticity of the simulator's host time to the loop's.
SENSITIVITY = 0.75

T = TypeVar("T")


class _Item:
    __slots__ = ("when", "weight")

    def __init__(self, when: float, weight: float) -> None:
        self.when = when
        self.weight = weight

    def decay(self, factor: float) -> float:
        self.weight *= factor
        return self.weight


def calibration_pass() -> float:
    """Run the fixed loop once; return the host seconds it took."""
    start = time.perf_counter()
    table: dict = {}
    queue: List[Tuple[float, int, _Item]] = []
    total = 0.0
    for i in range(12_000):
        item = _Item(i * 0.5, 1.0 + (i % 7))
        heapq.heappush(queue, (item.when + (i * 7919) % 101, i, item))
        table[i & 511] = table.get((i * 31) & 511, 0.0) + item.decay(0.99)
        if len(queue) > 256:
            total += heapq.heappop(queue)[2].weight
    if total < 0:  # keeps the loop's work observable
        raise AssertionError("calibration loop went wrong")
    return time.perf_counter() - start


class HostClock:
    """Accumulates the host seconds of timed calls, then rescales them."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self._calibration_s = 0.0
        self._passes = 0

    def measure(self, fn: Callable[[], T]) -> T:
        """Call ``fn``, add its host seconds, calibrate; return its result."""
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        self.raw_s += elapsed
        spent = 0.0
        while True:
            spent += calibration_pass()
            self._passes += 1
            if spent >= CALIBRATION_SHARE * elapsed:
                break
        self._calibration_s += spent
        return result

    @property
    def scale(self) -> float:
        """Reference-speed seconds per raw host second."""
        if not self._passes:
            return 1.0
        speed = REFERENCE_PASS_S * self._passes / self._calibration_s
        return speed ** SENSITIVITY

    @property
    def seconds(self) -> float:
        """Total timed seconds at reference machine speed."""
        return self.raw_s * self.scale

