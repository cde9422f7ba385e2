"""Declarative simulation points and their parallel execution.

A full-fidelity experiment is dozens of independent 2,000,000-clock
simulations; they parallelise perfectly.  Because worker processes need
picklable work items, a point is described *declaratively* by
:class:`PointSpec` (workload/catalog/fault-plan factories are resolved
inside the worker from the spec).  :func:`run_points` is the one
executor: it fans specs across a process pool and hands results back in
input order, so the experiments, the benchmarks and the CLI see
bit-identical results for every worker count (docs/parallel.md).
:func:`code_fingerprint` names the simulator source a result came from.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import Executor, as_completed
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.config import SimulationParameters
from repro.errors import ExperimentError
from repro.faults import FaultPlan
from repro.machine import Catalog, run_simulation
from repro.machine.cluster import WorkloadFn
from repro.metrics.collector import RunMetrics
from repro.workloads import (pattern1, pattern1_catalog, pattern2,
                             pattern2_catalog, pattern3, pattern3_catalog)

#: Known workload families a PointSpec can name.
WORKLOADS = ("pattern1", "pattern2", "pattern3")


@dataclass(frozen=True)
class PointSpec:
    """One simulation point, fully described by plain data.

    ``fault_plan_json`` carries an optional serialized
    :class:`~repro.faults.FaultPlan` (``plan.to_json()``): plans are
    kept in their JSON form so the spec stays hashable and picklable;
    the plan object is rebuilt inside the worker.
    """

    workload: str                 # one of WORKLOADS
    scheduler: str
    arrival_rate_tps: float
    sim_clocks: float = 2_000_000.0
    seed: int = 1
    num_hots: int = 8             # pattern2/3 hot-set size
    error_sigma: float = 0.0      # pattern1 declared-cost error
    fault_plan_json: Optional[str] = None

    def build(self) -> Tuple[WorkloadFn, Catalog, SimulationParameters]:
        """Resolve (workload_fn, catalog, parameters) for this point."""
        if self.workload == "pattern1":
            workload = pattern1(16, error_sigma=self.error_sigma)
            catalog = pattern1_catalog()
            num_partitions = 16
        elif self.workload == "pattern2":
            workload = pattern2(num_hots=self.num_hots)
            catalog = pattern2_catalog(num_hots=self.num_hots)
            num_partitions = 8 + self.num_hots
        elif self.workload == "pattern3":
            workload = pattern3(num_hots=self.num_hots)
            catalog = pattern3_catalog(num_hots=self.num_hots)
            num_partitions = 8 + self.num_hots
        else:
            raise ExperimentError(
                f"unknown workload {self.workload!r}; "
                f"choose from {WORKLOADS}")
        params = SimulationParameters(
            scheduler=self.scheduler, arrival_rate_tps=self.arrival_rate_tps,
            sim_clocks=self.sim_clocks, seed=self.seed,
            num_partitions=num_partitions)
        return workload, catalog, params

    def fault_plan(self) -> Optional[FaultPlan]:
        """The point's fault plan, rebuilt from its JSON form."""
        if self.fault_plan_json is None:
            return None
        return FaultPlan.from_json(self.fault_plan_json)


def run_point(spec: PointSpec) -> RunMetrics:
    """Execute one point (top-level so it pickles for pool workers)."""
    workload, catalog, params = spec.build()
    return run_simulation(params, workload, catalog=catalog,
                          fault_plan=spec.fault_plan()).metrics


def resolve_workers(max_workers: Optional[int], tasks: int) -> int:
    """Effective worker count: clamp to the task count, None = all cores."""
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    if max_workers < 1:
        raise ExperimentError(f"max_workers must be >= 1, got {max_workers}")
    return min(max_workers, tasks) if tasks else 1


def _completions(specs: List[PointSpec],
                 workers: int) -> Iterator[Tuple[int, RunMetrics]]:
    """``(input index, metrics)`` for each point as it finishes.

    Only starting the pool and submitting to it fall back to in-process
    execution (restricted platforms); an exception raised by a point
    propagates at once, and the points not yet started are cancelled.
    """
    if workers > 1:
        pool: Optional[Executor] = None
        try:
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(max_workers=workers)
            futures = {pool.submit(run_point, spec): index
                       for index, spec in enumerate(specs)}
        except (OSError, ValueError, ImportError):
            if pool is not None:
                pool.shutdown(cancel_futures=True)
            pool = None
        if pool is not None:
            try:
                for future in as_completed(futures):
                    yield futures[future], future.result()
            finally:
                pool.shutdown(cancel_futures=True)
            return
    for index, spec in enumerate(specs):
        yield index, run_point(spec)


def run_points(specs: Sequence[PointSpec],
               processes: Optional[int] = None,
               progress: Optional[Callable[[PointSpec, RunMetrics],
                                           None]] = None,
               ) -> List[RunMetrics]:
    """Run every point, optionally across a process pool.

    Results come back in input order regardless of completion order.
    ``processes=None`` uses ``os.cpu_count()``; ``processes=1`` runs
    in-process; values below 1 raise :class:`ExperimentError`.  Either
    way the results are bit-identical: each point is an isolated
    simulation seeded by its own spec.  ``progress`` fires once per
    finished point (in completion order under a pool).
    """
    specs = list(specs)
    workers = resolve_workers(processes, len(specs))
    done: Dict[int, RunMetrics] = {}
    # closing(): a raising progress callback still shuts the pool down.
    with closing(_completions(specs, workers)) as finished:
        for index, metrics in finished:
            done[index] = metrics
            if progress is not None:
                progress(specs[index], metrics)
    return [done[index] for index in range(len(specs))]


def sweep_specs(workload: str, schedulers: Sequence[str],
                arrival_rates: Sequence[float],
                **kwargs: Any) -> List[PointSpec]:
    """The cross product schedulers x rates as PointSpecs."""
    return [PointSpec(workload=workload, scheduler=scheduler,
                      arrival_rate_tps=rate, **kwargs)
            for scheduler in schedulers for rate in arrival_rates]


#: Sub-packages of repro whose source participates in the code
#: fingerprint — exactly the layers that determine simulation results.
#: Tooling (lint/), reporting (analysis/) and the CLI are excluded so a
#: docs or linter change does not change the fingerprint.
_FINGERPRINTED = ("config.py", "errors.py", "core", "engine", "machine",
                  "faults", "workloads", "metrics", "experiments")

_code_fingerprint_memo: Dict[str, str] = {}


def code_fingerprint() -> str:
    """SHA-256 over the simulator's own source files (sorted walk).

    Any change to result-bearing code yields a new fingerprint, so a
    report stamped with it names the simulator that produced it.
    """
    if "value" in _code_fingerprint_memo:
        return _code_fingerprint_memo["value"]
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for entry in _FINGERPRINTED:
        path = package_root / entry
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for source in files:
            digest.update(str(source.relative_to(package_root)).encode())
            digest.update(b"\x00")
            digest.update(source.read_bytes())
            digest.update(b"\x00")
    value = digest.hexdigest()
    _code_fingerprint_memo["value"] = value
    return value
