"""Executes a :class:`~repro.faults.plan.FaultPlan` inside one run.

The injector owns every stochastic fault decision and every timed fault
process:

* per-admission assassination (:meth:`FaultInjector.plan_abort`) draws
  on the ``"faults-aborts"`` stream, and explicit
  :class:`~repro.faults.plan.StepAbort` entries fire deterministically
  on their configured attempt;
* node crashes/recoveries and partition slowdown windows run as engine
  processes scheduled at absolute plan times
  (:meth:`FaultInjector.install`).

All draws go through :class:`~repro.engine.rng.RandomStreams`, so the
realised fault schedule is a pure function of (plan, master seed) and
replays bit-identically.
"""

from __future__ import annotations

from typing import (Any, Dict, Generator, List, Optional, Tuple,
                    TYPE_CHECKING)

from repro.core.transaction import TransactionRuntime
from repro.engine import Environment, Event, RandomStreams
from repro.faults.plan import (ControlCrash, FaultPlan, NodeCrash,
                               PartitionSlowdown)

if TYPE_CHECKING:  # pragma: no cover - type hints only, no runtime import
    from repro.machine.data_node import DataNode
    from repro.machine.partition import Catalog
    from repro.machine.shard import ControlPlane
    from repro.metrics.collector import MetricsCollector
    from repro.machine.trace import Tracer

STREAM_ABORTS = "faults-aborts"


class FaultInjector:
    """Turns a declarative plan into concrete, seeded fault events."""

    def __init__(self, plan: FaultPlan, streams: RandomStreams) -> None:
        self.plan = plan
        self.streams = streams
        # (tid, attempt) -> step for the explicit one-shot aborts.
        self._step_aborts: Dict[Tuple[int, int], int] = {
            (abort.tid, abort.attempt): abort.step
            for abort in plan.step_aborts}
        self._metrics: Optional["MetricsCollector"] = None
        self._tracer: Optional["Tracer"] = None

    # -- per-admission assassination ------------------------------------------

    def plan_abort(self, txn: TransactionRuntime) -> Optional[int]:
        """The step at which this admitted attempt dies, or None.

        A returned value of ``len(steps)`` means "after the last step,
        before commit".  Explicit :class:`StepAbort` entries take
        precedence (and consume no randomness); otherwise the abort-rate
        draw decides.  Called exactly once per successful admission, so
        stream consumption — and thus the whole schedule — is
        reproducible.
        """
        explicit = self._step_aborts.get((txn.tid, txn.attempts + 1))
        if explicit is not None:
            return min(explicit, len(txn.spec.steps))
        if self.plan.abort_rate <= 0.0:
            return None
        if self.streams.random(STREAM_ABORTS) >= self.plan.abort_rate:
            return None
        return self.streams.randint(STREAM_ABORTS, 0, len(txn.spec.steps))

    # -- timed faults ----------------------------------------------------------

    def install(self, env: Environment, data_nodes: List["DataNode"],
                catalog: "Catalog",
                metrics: Optional["MetricsCollector"] = None,
                tracer: Optional["Tracer"] = None) -> None:
        """Spawn the engine processes realising the plan's timed faults."""
        self._metrics = metrics
        self._tracer = tracer
        for crash in self.plan.crashes:
            if crash.node < len(data_nodes):
                env.process(self._crash_process(env, data_nodes[crash.node],
                                                crash))
        for slowdown in self.plan.slowdowns:
            nodes = self._nodes_of_partition(slowdown, data_nodes, catalog)
            if nodes:
                env.process(self._slowdown_process(env, nodes, slowdown))

    def install_control(self, env: Environment,
                        plane: "ControlPlane") -> None:
        """Spawn the plan's control-node crash/recovery processes.

        A plan whose ``control_crashes`` target shards beyond the plane's
        size silently skips them (mirroring data-node crash handling).
        """
        for crash in self.plan.control_crashes:
            if crash.cn < plane.num_shards:
                env.process(self._cn_crash_process(env, plane, crash))

    @staticmethod
    def _nodes_of_partition(slowdown: PartitionSlowdown,
                            data_nodes: List["DataNode"],
                            catalog: "Catalog") -> List["DataNode"]:
        if slowdown.partition >= len(catalog):
            return []
        partition = catalog.partition(slowdown.partition)
        if partition.declustered:
            return list(data_nodes)
        if partition.node >= len(data_nodes):
            return []
        return [data_nodes[partition.node]]

    def _crash_process(self, env: Environment, node: "DataNode",
                       crash: NodeCrash) -> Generator[Event, Any, None]:
        if crash.at > env.now:
            yield env.timeout(crash.at - env.now)
        node.crash()
        self._record("node_crash", env.now, node=node.node_id)
        if crash.recover_at is None:
            return
        yield env.timeout(crash.recover_at - env.now)
        node.recover()
        self._record("node_recovery", env.now, node=node.node_id)

    def _cn_crash_process(self, env: Environment, plane: "ControlPlane",
                          crash: ControlCrash) -> Generator[Event, Any, None]:
        if crash.at > env.now:
            yield env.timeout(crash.at - env.now)
        doomed = plane.crash_shard(crash.cn)
        self._record("cn_crash", env.now, cn=crash.cn, doomed=doomed)
        if crash.recover_at is None:
            return
        yield env.timeout(crash.recover_at - env.now)
        records = plane.recover_shard(crash.cn)
        self._record("cn_recovery", env.now, cn=crash.cn, records=records)

    def _slowdown_process(self, env: Environment, nodes: List["DataNode"],
                          slowdown: PartitionSlowdown,
                          ) -> Generator[Event, Any, None]:
        if slowdown.at > env.now:
            yield env.timeout(slowdown.at - env.now)
        tokens = [(node, node.apply_slowdown(slowdown.factor))
                  for node in nodes]
        self._record("slowdown_start", env.now,
                     partition=slowdown.partition, factor=slowdown.factor,
                     nodes=[n.node_id for n in nodes])
        yield env.timeout(slowdown.until - env.now)
        for node, token in tokens:
            node.clear_slowdown(token)
        self._record("slowdown_end", env.now, partition=slowdown.partition,
                     factor=slowdown.factor)

    def _record(self, kind: str, now: float, **detail: object) -> None:
        if self._metrics is not None:
            self._metrics.record_fault(kind, now, **detail)
        if self._tracer is not None:
            from repro.machine.trace import EventType
            trace_kind = {"node_crash": EventType.NODE_CRASHED,
                          "node_recovery": EventType.NODE_RECOVERED,
                          "cn_crash": EventType.CN_CRASHED,
                          "cn_recovery": EventType.CN_RECOVERED}.get(kind)
            if trace_kind is not None:
                self._tracer.emit(now, trace_kind, -1, **detail)
