"""Seed replication: mean ± confidence interval over independent runs.

The paper reports single 2,000,000-clock runs; for our own quality
control (and for anyone extending the study) this module runs the same
point under several seeds and reports the mean with a 95 % Student-t
interval per metric — the standard independent-replications method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.config import SimulationParameters
from repro.errors import ExperimentError
from repro.metrics.collector import RunMetrics
from repro.metrics.stats import mean_confidence_interval


@dataclass(frozen=True)
class ReplicatedMetric:
    """A metric's replication summary."""

    mean: float
    half_width: float       # 95 % CI half-width
    values: Tuple[float, ...]

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.half_width:.3f}"


@dataclass
class ReplicationResult:
    """All runs plus per-metric summaries."""

    runs: List[RunMetrics]

    def metric(self, name: str) -> ReplicatedMetric:
        values = tuple(float(getattr(run, name)) for run in self.runs)
        mean, half = mean_confidence_interval(values)
        return ReplicatedMetric(mean, half, values)

    @property
    def throughput(self) -> ReplicatedMetric:
        return self.metric("throughput_tps")

    @property
    def response_time(self) -> ReplicatedMetric:
        return self.metric("mean_response_time")

    def summary(self) -> Dict[str, str]:
        return {name: str(self.metric(name))
                for name in ("throughput_tps", "mean_response_time",
                             "dn_utilization", "cn_utilization")}


def replicate(params: SimulationParameters,
              workload_factory: Callable[[], object],
              catalog_factory: Callable[[], object],
              seeds: Sequence[int] = (1, 2, 3, 4, 5),
              ) -> ReplicationResult:
    """Run the same point under each seed, in-process and in seed order.

    Factories (not instances) are taken so every replication gets fresh
    workload/catalog state; the seed is the only thing that varies.  To
    fan replications over processes, sweep them with
    :func:`repro.experiments.parallel.run_sweep` instead.
    """
    if len(seeds) < 2:
        raise ExperimentError("replication needs at least two seeds")
    if len(set(seeds)) != len(seeds):
        raise ExperimentError("seeds must be distinct")
    # Imported here to keep repro.metrics import-independent of the
    # machine layer (which itself imports repro.metrics.collector).
    from repro.machine.cluster import run_simulation

    return ReplicationResult([
        run_simulation(params.with_overrides(seed=seed), workload_factory(),
                       catalog=catalog_factory()).metrics
        for seed in seeds])
