"""Curve interpolation for the paper's "throughput at RT = 70 s" metric.

Experiments 2 and 4 report, per scheduler, the throughput at the arrival
rate where the mean response time reaches 70 seconds.  Given a sweep of
(arrival rate -> mean RT) and (arrival rate -> TPS) samples, we find the
RT crossing by piecewise-linear interpolation (RT is monotone in load up
to noise) and read the TPS curve at the same arrival rate.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.errors import ExperimentError


def interpolate_crossing(xs: Sequence[float], ys: Sequence[float],
                         target: float) -> Optional[float]:
    """The smallest x where the piecewise-linear y(x) crosses ``target``.

    Points are sorted by x first.  Infinite/NaN y values terminate the
    usable prefix (an overloaded run reports unbounded RT).  Returns None
    if the curve never reaches the target inside the sampled range.
    """
    if len(xs) != len(ys):
        raise ExperimentError("xs and ys must have equal length")
    points = sorted(zip(xs, ys))
    usable: List[Tuple[float, float]] = []
    for x, y in points:
        if math.isnan(y):
            continue
        usable.append((x, y))

    previous: Optional[Tuple[float, float]] = None
    for x, y in usable:
        if y >= target:
            if previous is None:
                return x  # already above target at the first sample
            x0, y0 = previous
            if math.isinf(y):
                return x0  # crossing happens somewhere in (x0, x]; be
                # conservative and report the last finite point
            if y == y0:
                return x
            # y0 < target <= y, so the crossing is in (x0, x]; min()
            # keeps float rounding from overshooting x.
            return min(x0 + (target - y0) * (x - x0) / (y - y0), x)
        previous = (x, y)
    return None


def value_at(xs: Sequence[float], ys: Sequence[float], x: float) -> float:
    """Piecewise-linear evaluation of y(x), clamped to the sampled range."""
    if len(xs) != len(ys) or not xs:
        raise ExperimentError("need equally sized, non-empty samples")
    points = sorted(zip(xs, ys))
    if x <= points[0][0]:
        return points[0][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= x <= x1:
            if x1 == x0:
                return y1
            return y0 + (x - x0) * (y1 - y0) / (x1 - x0)
    return points[-1][1]


def throughput_at_response_time(arrival_rates: Sequence[float],
                                response_times: Sequence[float],
                                throughputs: Sequence[float],
                                rt_target: float) -> Optional[float]:
    """TPS at the arrival rate where mean RT reaches ``rt_target``.

    Returns the final sampled throughput if RT never reaches the target
    (the scheduler is better than the measurement range), None only when
    nothing at all was sampled.
    """
    if not arrival_rates:
        return None
    crossing = interpolate_crossing(arrival_rates, response_times, rt_target)
    if crossing is None:
        # RT stayed under target everywhere: report the largest sampled
        # throughput (a lower bound on the true value).
        finite = [tps for tps in throughputs if not math.isnan(tps)]
        return max(finite) if finite else None
    return value_at(arrival_rates, throughputs, crossing)
