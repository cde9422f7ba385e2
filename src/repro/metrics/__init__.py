"""Performance metrics: collection and curve utilities.

The paper's two metrics are mean response time RT (creation to completion)
and throughput TPS (committed transactions per second); Experiments 2 and
4 additionally report *throughput at RT = 70 s*, obtained here by sweeping
the arrival rate and interpolating both curves at the RT crossing (see
:mod:`repro.metrics.interpolate`).
"""

from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.metrics.interpolate import (interpolate_crossing,
                                       throughput_at_response_time)

__all__ = [
    "MetricsCollector",
    "RunMetrics",
    "interpolate_crossing",
    "throughput_at_response_time",
]
