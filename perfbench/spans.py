"""Span tracing of the simulator's layers, from outside the program.

:class:`SpanRecorder` replaces the public entry points of each module
with wrappers that record a span -- name, start, end, parent -- around
every call, and restores the originals when the ``with`` block ends.
Nothing under ``src/`` changes.  A span's *self time* is its duration
minus the durations of its child spans.

Spans are aggregated as they close (self seconds and calls per name),
and the first ``keep`` of them are also kept whole so they can be
written out when the run ends.  A call nested directly inside a span of
the same name (an override calling ``super()``) adds to the self time
but is not counted again.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Any, Callable, DefaultDict, Dict, List, Optional, Tuple

from repro.core import builder
from repro.core.estimator import ContentionBatch
from repro.core.locks import LockTable
from repro.core.schedulers import chain_scheduler
from repro.core.schedulers.base import Decision, Scheduler
from repro.core.wtpg import WTPG
from repro.engine import Environment
from repro.machine.control_log import DependencyLog
from repro.machine.data_node import DataNode
from repro.machine.shard import ControlPlane
from repro.machine.trace import Tracer
from repro.metrics.collector import MetricsCollector

# span name -> layer: the module whose entry point the span wraps.
LAYER_OF = {
    "engine.run": "engine",
    "engine.timeout": "engine",
    "engine.horizon": "engine",
    "dn.submit": "dn",
    "sched.admit": "sched",
    "sched.lock": "sched",
    "sched.objects": "sched",
    "sched.commit": "sched",
    "sched.abort": "sched",
    "locks.conflicts": "locks",
    "locks.kcheck": "locks",
    "builder.add": "builder",
    "estimator": "estimator",
    "wtpg.cp": "wtpg",
    "wtpg.mutate": "wtpg",
    "chain.optimise": "chain",
    "log.append": "log",
    "log.replay": "log",
    "shard.recover": "shard",
    "trace.emit": "trace",
    "metrics.record": "metrics",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

# Called after an outermost span closes: (arguments, result, seconds).
After = Callable[[Tuple[Any, ...], Any, float], None]


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class SpanRecorder:
    """Wraps layer entry points and aggregates the spans they record."""

    def __init__(self, keep: int = 20_000) -> None:
        self.self_s: DefaultDict[str, float] = defaultdict(float)
        self.calls: DefaultDict[str, int] = defaultdict(int)
        self.counts: DefaultDict[str, float] = defaultdict(float)
        self.recover_s: List[float] = []
        self.nodes_max = 0
        # (span id, parent id or -1, name, start, end)
        self.kept: List[Tuple[int, int, str, float, float]] = []
        self._keep = keep
        self._stack: List[List[Any]] = []
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable[..., Any],
              after: Optional[After] = None) -> Callable[..., Any]:
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        calls = self.calls
        kept = self.kept
        keep = self._keep

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            # frame: [name, child seconds, span id]
            frame = [name, 0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(kept) < keep:
                    kept.append((frame[2], -1 if parent is None
                                 else parent[2], name, start, end))
            if parent is None or parent[0] != name:
                calls[name] += 1
                if after is not None:
                    after(args, result, duration)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _patch(self, owner: Any, attr: str, name: str,
               after: Optional[After] = None) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, after))

    def _patch_hierarchy(self, base: type, attr: str, name: str,
                         after: Optional[After] = None) -> None:
        for cls in _subclasses(base):
            if attr in cls.__dict__:
                self._patch(cls, attr, name, after)

    def __enter__(self) -> "SpanRecorder":
        counts = self.counts

        def admitted(args: Tuple[Any, ...], response: Any, _: float) -> None:
            counts["sched.admit.accepted"] += response.admitted

        def granted(args: Tuple[Any, ...], response: Any, _: float) -> None:
            counts["sched.lock.granted"] += (
                response.decision is Decision.GRANT)

        def replayed(args: Tuple[Any, ...], result: Any, _: float) -> None:
            counts["log.replay.records"] += result[1]

        def grew(args: Tuple[Any, ...], result: Any, _: float) -> None:
            self.nodes_max = max(self.nodes_max, len(args[0]))

        def recovered(args: Tuple[Any, ...], result: Any,
                      seconds: float) -> None:
            self.recover_s.append(seconds)

        self._patch(Environment, "run", "engine.run")
        self._patch(Environment, "timeout", "engine.timeout")
        self._patch(Environment, "timeout_until", "engine.timeout")
        self._patch(Environment, "affecting_horizon", "engine.horizon")
        self._patch(DataNode, "submit", "dn.submit")
        self._patch_hierarchy(Scheduler, "admit", "sched.admit", admitted)
        self._patch_hierarchy(Scheduler, "request_lock", "sched.lock",
                              granted)
        self._patch_hierarchy(Scheduler, "object_processed",
                              "sched.objects")
        self._patch_hierarchy(Scheduler, "object_processed_batch",
                              "sched.objects")
        self._patch_hierarchy(Scheduler, "commit", "sched.commit")
        self._patch_hierarchy(Scheduler, "abort_transaction", "sched.abort")
        self._patch(LockTable, "conflicting_transactions", "locks.conflicts")
        self._patch(LockTable, "k_conflict_violated", "locks.kcheck")
        self._patch(builder, "add_transaction", "builder.add")
        self._patch(ContentionBatch, "estimate", "estimator")
        self._patch(WTPG, "critical_path_length", "wtpg.cp")
        self._patch(WTPG, "add_transaction", "wtpg.mutate", grew)
        for attr in ("remove_transaction", "resolve", "decrement_source"):
            self._patch(WTPG, attr, "wtpg.mutate")
        # chain_scheduler imported the function by name: patch it there.
        self._patch(chain_scheduler, "optimise_chain", "chain.optimise")
        for attr in ("append_admit", "append_grant", "append_commit",
                     "append_abort"):
            self._patch(DependencyLog, attr, "log.append")
        self._patch(DependencyLog, "replay", "log.replay", replayed)
        self._patch(ControlPlane, "recover_shard", "shard.recover", recovered)
        self._patch(Tracer, "emit", "trace.emit")
        for attr in [a for a in vars(MetricsCollector)
                     if a.startswith("record_")]:
            self._patch(MetricsCollector, attr, "metrics.record")
        return self

    def __exit__(self, *exc: object) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def watch_data_nodes(self, data_nodes: List[DataNode]) -> None:
        """Count the quanta each node reports through its batched callback
        (wired to ``Scheduler.object_processed_batch``)."""
        counts = self.counts
        for node in data_nodes:
            def batched(txn: Any, full_quanta: int,
                        forward: Callable[[Any, int], None]
                        = node.on_objects_batch) -> None:
                counts["dn.batched_quanta"] += full_quanta
                forward(txn, full_quanta)
            node.on_objects_batch = batched

    def per_layer(self, raw_s: float, scale: float, dn_quanta: int,
                  dn_util: float, cn_util: float,
                  twopc_rounds: int) -> Dict[str, float]:
        """The per-layer metrics, keyed as in BENCHMARK.json.

        ``raw_s`` is the traced runs' raw host time; ``scale`` converts
        raw seconds to reference-speed seconds (see ``calibrate.py``).
        """
        s = defaultdict(float, {name: seconds * scale
                                for name, seconds in self.self_s.items()})
        n, c = self.calls, self.counts
        dn_batched = c["dn.batched_quanta"]
        recover = self.recover_s
        metrics = {
            "engine.self_s": s["engine.run"],
            "engine.timeouts": n["engine.timeout"],
            "engine.horizon.calls": n["engine.horizon"],
            "engine.horizon.s": s["engine.horizon"],
            "dn.submits": n["dn.submit"],
            "dn.quanta": dn_quanta,
            "dn.coalesce_ratio": _ratio(dn_batched, dn_quanta),
            "dn.util": dn_util,
            "sched.admit.calls": n["sched.admit"],
            "sched.admit.s": s["sched.admit"],
            "sched.admit.accept_ratio": _ratio(
                c["sched.admit.accepted"], n["sched.admit"]),
            "sched.lock.calls": n["sched.lock"],
            "sched.lock.s": s["sched.lock"],
            "sched.lock.grant_ratio": _ratio(
                c["sched.lock.granted"], n["sched.lock"]),
            "sched.objects.s": s["sched.objects"],
            "sched.commit.s": s["sched.commit"],
            "sched.abort.s": s["sched.abort"],
            "cn.util": cn_util,
            "locks.conflicts.calls": n["locks.conflicts"],
            "locks.conflicts.s": s["locks.conflicts"],
            "locks.kcheck.s": s["locks.kcheck"],
            "builder.add.calls": n["builder.add"],
            "builder.add.s": s["builder.add"],
            "estimator.calls": n["estimator"],
            "estimator.s": s["estimator"],
            "wtpg.cp.calls": n["wtpg.cp"],
            "wtpg.cp.s": s["wtpg.cp"],
            "wtpg.mutate.s": s["wtpg.mutate"],
            "wtpg.nodes_max": self.nodes_max,
            "chain.optimise.calls": n["chain.optimise"],
            "chain.optimise.s": s["chain.optimise"],
            "log.append.calls": n["log.append"],
            "log.append.s": s["log.append"],
            "log.replay.calls": n["log.replay"],
            "log.replay.s": s["log.replay"],
            "log.replay.records": c["log.replay.records"],
            "shard.recover.median_s": (statistics.median(recover) * scale
                                       if recover else 0.0),
            "shard.recover.max_s": max(recover, default=0.0) * scale,
            "shard.twopc_rounds": twopc_rounds,
            "trace.emit.calls": n["trace.emit"],
            "trace.emit.s": s["trace.emit"],
            "metrics.record.calls": n["metrics.record"],
            "metrics.record.s": s["metrics.record"],
        }
        for layer in LAYERS:
            metrics[f"share.{layer}"] = sum(
                seconds for name, seconds in self.self_s.items()
                if LAYER_OF[name] == layer) / raw_s
        return metrics

    def dump(self) -> List[Dict[str, Any]]:
        """The kept spans, in the order they closed, as JSON records."""
        return [{"id": ident, "parent": parent, "name": name,
                 "start": start, "end": end}
                for ident, parent, name, start, end in self.kept]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
