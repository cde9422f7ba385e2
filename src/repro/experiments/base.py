"""Shared experiment infrastructure: arrival-rate sweeps per scheduler."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.metrics.collector import RunMetrics
from repro.metrics.interpolate import throughput_at_response_time
from repro.errors import ExperimentError

# The paper compares schedulers at a mean response time of 70 seconds.
RT_TARGET_CLOCKS = 70_000.0

# Default full-fidelity horizon (the paper's run length).
PAPER_CLOCKS = 2_000_000.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs every experiment accepts (scaled down for quick runs)."""

    sim_clocks: float = PAPER_CLOCKS
    seed: int = 1
    schedulers: Sequence[str] = ("ASL", "C2PL", "CHAIN", "K2", "NODC")
    arrival_rates: Sequence[float] = (
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1)
    progress: Optional[Callable[[str], None]] = None
    max_workers: int = 1
    """Process-pool width for the point grid (1 = in-process).  Results
    are identical for every value: each point is an isolated simulation
    seeded by its spec, executed via repro.experiments.runner."""

    def report(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)


@dataclass
class SchedulerCurve:
    """One scheduler's measured points over an arrival-rate sweep."""

    scheduler: str
    points: List[RunMetrics] = field(default_factory=list)

    @property
    def arrival_rates(self) -> List[float]:
        return [p.arrival_rate_tps for p in self.points]

    @property
    def response_times(self) -> List[float]:
        return [p.mean_response_time for p in self.points]

    @property
    def response_times_seconds(self) -> List[float]:
        return [p.mean_response_time / 1000.0 for p in self.points]

    @property
    def throughputs(self) -> List[float]:
        return [p.throughput_tps for p in self.points]

    def throughput_at_rt(self, target: float = RT_TARGET_CLOCKS,
                         ) -> Optional[float]:
        """The paper's 'throughput at RT = 70 s' reading of this curve."""
        if not self.points:
            return None
        return throughput_at_response_time(
            self.arrival_rates, self.response_times, self.throughputs, target)

    def saturation_rate(self, target: float = RT_TARGET_CLOCKS,
                        ) -> Optional[float]:
        """Arrival rate where mean RT crosses the target."""
        from repro.metrics.interpolate import interpolate_crossing
        if not self.points:
            return None
        return interpolate_crossing(self.arrival_rates, self.response_times,
                                    target)


def run_scheduler_grid(config: ExperimentConfig, workload: str,
                       num_hots: int = 8, error_sigma: float = 0.0,
                       schedulers: Optional[Sequence[str]] = None,
                       ) -> Dict[str, SchedulerCurve]:
    """Run the full schedulers x arrival-rates grid of ``config``.

    The grid is expressed as declarative :class:`PointSpec`s and fanned
    across ``config.max_workers`` processes by the deterministic
    executor (:mod:`repro.experiments.runner`); curves come back in
    config order with points in arrival-rate order, bit-identical to a
    serial nested loop.  Workloads must be spec-expressible (pattern1/2/3
    — all four paper experiments are).
    """
    from repro.experiments.runner import PointSpec, run_points

    if schedulers is None:
        schedulers = tuple(config.schedulers)
    if not config.arrival_rates:
        raise ExperimentError("need at least one arrival rate")
    specs = [PointSpec(workload=workload, scheduler=scheduler,
                       arrival_rate_tps=rate, sim_clocks=config.sim_clocks,
                       seed=config.seed, num_hots=num_hots,
                       error_sigma=error_sigma)
             for scheduler in schedulers for rate in config.arrival_rates]

    def progress(spec: "PointSpec", metrics: RunMetrics) -> None:
        config.report(
            f"{spec.scheduler} λ={spec.arrival_rate_tps:.2f}: "
            f"TPS={metrics.throughput_tps:.3f} "
            f"RT={metrics.mean_response_time / 1000:.1f}s")

    metrics = run_points(specs, processes=config.max_workers,
                         progress=progress if config.progress else None)
    curves: Dict[str, SchedulerCurve] = {}
    for spec, point in zip(specs, metrics):
        curves.setdefault(spec.scheduler,
                          SchedulerCurve(spec.scheduler)).points.append(point)
    return curves


def useful_utilization(curve: SchedulerCurve, nodc: SchedulerCurve,
                       target: float = RT_TARGET_CLOCKS) -> Optional[float]:
    """The paper's useful-utilization ratio: TPS(scheduler)/TPS(NODC).

    Figure 7's discussion expresses each scheduler's useful resource
    utilization as its throughput at RT = 70 s over NODC's.
    """
    own = curve.throughput_at_rt(target)
    bound = nodc.throughput_at_rt(target)
    if own is None or bound is None or bound == 0:
        return None
    return own / bound
