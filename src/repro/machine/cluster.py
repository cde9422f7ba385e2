"""Cluster wiring: control plane, N data nodes, Poisson arrivals.

:func:`run_simulation` is the main entry point of the machine layer: give
it parameters and a workload generator, get back a
:class:`SimulationResult` with the paper's metrics.

The control side is always a :class:`~repro.machine.shard.ControlPlane`
of ``num_control_nodes`` shards.  With one shard the machine is exactly
the paper's: one centralized control node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional

from repro.config import SimulationParameters
from repro.core.history import History
from repro.core.schedulers import make_scheduler
from repro.core.schedulers.base import Scheduler
from repro.core.transaction import TransactionRuntime, TransactionSpec
from repro.engine import Environment, Event, RandomStreams
from repro.faults import FaultInjector, FaultPlan
from repro.machine.data_node import DataNode
from repro.machine.partition import Catalog
from repro.machine.shard import ControlPlane
from repro.machine.trace import Tracer
from repro.metrics.collector import MetricsCollector, RunMetrics

# A workload generator maps (tid, RandomStreams) to the next transaction.
WorkloadFn = Callable[[int, RandomStreams], TransactionSpec]


@dataclass
class SimulationResult:
    """Everything a run produced: metrics plus optional history/trace.

    ``scheduler`` is shard 0's scheduler — the centralized scheduler of
    a single-CN run — or None while that shard is down;
    ``control_plane`` carries the full per-shard state.
    """

    metrics: RunMetrics
    history: Optional[History]
    scheduler: Optional[Scheduler]
    control_plane: ControlPlane
    tracer: Optional[Tracer] = None

    @property
    def throughput_tps(self) -> float:
        return self.metrics.throughput_tps

    @property
    def mean_response_time(self) -> float:
        return self.metrics.mean_response_time

    def validate(self) -> None:
        """Run every applicable correctness check on this run.

        * lock exclusion + conflict serializability, when a history was
          recorded (note: NODC legitimately fails this — it is the
          no-concurrency-control upper bound);
        * trace lifecycle well-formedness, when a tracer was attached;
        * lock-table/WTPG consistency of the final state of every shard
          still (or back) alive.
        """
        if self.history is not None:
            self.history.check_lock_exclusion()
            self.history.check_serializable()
        if self.tracer is not None:
            from repro.machine.trace import validate_trace
            validate_trace(self.tracer)
        for shard in self.control_plane.shards:
            # A shard down at the end of the run has no state to check.
            table = getattr(shard.scheduler, "table", None)
            wtpg = getattr(shard.scheduler, "wtpg", None)
            if table is not None and wtpg is not None:
                from repro.core.invariants import check_consistency
                check_consistency(table, wtpg)


class Cluster:
    """The assembled machine, ready to run one simulation."""

    def __init__(self, params: SimulationParameters, workload: WorkloadFn,
                 catalog: Optional[Catalog] = None,
                 record_history: bool = False,
                 tracer: Optional["Tracer"] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 scheduler_factory: Optional[Callable[[], Scheduler]] = None,
                 ) -> None:
        self.params = params
        self.workload = workload
        self.env = Environment()
        self.streams = RandomStreams(params.seed)
        self.catalog = catalog or Catalog.uniform(
            params.num_partitions, size_objects=5.0,
            num_nodes=params.num_nodes)
        if scheduler_factory is None:
            scheduler_factory = lambda: make_scheduler(  # noqa: E731
                params.scheduler, **params.scheduler_kwargs())
        self.scheduler_factory = scheduler_factory
        self.metrics = MetricsCollector()
        self.history = History() if record_history else None
        self.data_nodes = [DataNode(self.env, node_id, params.obj_time)
                           for node_id in range(params.num_nodes)]
        self.tracer = tracer
        # An absent or empty plan builds no injector at all: no extra
        # random draws, no extra engine processes — the run is
        # bit-identical to a machine without the fault subsystem.
        self.fault_plan = fault_plan
        self.injector = (FaultInjector(fault_plan, self.streams)
                         if fault_plan is not None and not fault_plan.empty()
                         else None)
        self.control_plane = ControlPlane(
            self.env, params, self.scheduler_factory, self.catalog,
            self.data_nodes, self.metrics, history=self.history,
            tracer=tracer, injector=self.injector)
        # Weight-adjustment messages go straight to the plane, which
        # routes them to the shard owning the executing step.
        for node in self.data_nodes:
            node.on_objects = self.control_plane.note_objects
            node.on_objects_batch = self.control_plane.note_objects_batch
        self._scheduler_name = self.control_plane.shards[0].live.name
        self._spawned = 0

    def _arrival_process(self) -> Generator[Event, Any, None]:
        """Poisson arrivals; each arrival spawns a transaction process."""
        env = self.env
        mean = self.params.mean_interarrival_clocks
        coordinator = self.control_plane.transaction_process
        while True:
            yield env.timeout(self.streams.exponential("arrivals", mean))
            self._spawned += 1
            spec = self.workload(self._spawned, self.streams)
            txn = TransactionRuntime(spec, arrival_time=env.now)
            self.metrics.record_arrival()
            env.process(coordinator(txn))

    def _scheduler_stats(self) -> Dict[str, float]:
        """Observational counters, summed over shards.

        Sums start from int ``0`` so every counter keeps its
        :class:`~repro.core.schedulers.base.SchedulerStats` type.
        """
        totals: Dict[str, float] = {}
        for shard in self.control_plane.shards:
            if shard.scheduler is None:
                continue  # a shard down at end of run lost its counters
            for key, value in shard.scheduler.stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def run(self) -> SimulationResult:
        """Run for ``sim_clocks`` and summarise."""
        if self.injector is not None:
            self.injector.install(self.env, self.data_nodes, self.catalog,
                                  metrics=self.metrics, tracer=self.tracer)
            self.injector.install_control(self.env, self.control_plane)
        self.env.process(self._arrival_process())
        self.env.run(until=self.params.sim_clocks)
        self.control_plane.parking.settle()
        elapsed = self.params.sim_clocks
        dn_utilization = (sum(dn.utilization(elapsed)
                              for dn in self.data_nodes)
                          / len(self.data_nodes))
        cn_utilizations = self.control_plane.utilizations(elapsed)
        cn_utilization = sum(cn_utilizations) / len(cn_utilizations)
        metrics = self.metrics.summarise(
            scheduler=self._scheduler_name,
            arrival_rate_tps=self.params.arrival_rate_tps,
            sim_clocks=elapsed,
            dn_utilization=dn_utilization,
            cn_utilization=cn_utilization,
            weight_messages=sum(dn.messages_sent for dn in self.data_nodes),
            scheduler_stats=self._scheduler_stats(),
            cn_utilizations=cn_utilizations,
        )
        plane = self.control_plane
        return SimulationResult(metrics=metrics, history=self.history,
                                scheduler=plane.shards[0].scheduler,
                                control_plane=plane, tracer=self.tracer)


def run_simulation(params: SimulationParameters, workload: WorkloadFn,
                   catalog: Optional[Catalog] = None,
                   record_history: bool = False,
                   fault_plan: Optional[FaultPlan] = None) -> SimulationResult:
    """Build a cluster and run one simulation — the one-call entry point."""
    cluster = Cluster(params, workload, catalog=catalog,
                      record_history=record_history, fault_plan=fault_plan)
    return cluster.run()
