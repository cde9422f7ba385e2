"""Structured event tracing for simulation runs.

A :class:`Tracer` records every lifecycle event of every transaction
(arrival, admission attempts, lock requests with their outcomes, step
dispatch/completion, commitment) with its simulation timestamp.  Traces
serve three purposes:

* debugging — ``tracer.timeline(tid)`` shows one transaction's life;
* validation — :func:`validate_trace` checks lifecycle well-formedness
  (used by the integration tests);
* persistence — JSON-lines export/import for offline analysis.

Tracing is off by default (it allocates one record per event); enable it
with ``Cluster(..., tracer=Tracer())``.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.errors import SimulationError


class EventType(enum.Enum):
    """Every kind of lifecycle event the machine can emit."""

    ARRIVAL = "arrival"
    ADMISSION_REJECTED = "admission_rejected"
    ADMITTED = "admitted"
    LOCK_GRANTED = "lock_granted"
    LOCK_BLOCKED = "lock_blocked"
    LOCK_DELAYED = "lock_delayed"
    STEP_DISPATCHED = "step_dispatched"
    STEP_COMPLETED = "step_completed"
    ABORTED = "aborted"            # restart: deadlock victim or fault
    COMMITTED = "committed"
    NODE_CRASHED = "node_crashed"      # machine fault; tid is -1
    NODE_RECOVERED = "node_recovered"  # machine fault; tid is -1
    CN_CRASHED = "cn_crashed"          # control-node fault; tid is -1
    CN_RECOVERED = "cn_recovered"      # log replay finished; tid is -1


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped lifecycle event of one transaction."""

    time: float
    kind: EventType
    tid: int
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"time": self.time, "kind": self.kind.value,
                           "tid": self.tid, "detail": self.detail},
                          sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        raw = json.loads(line)
        return cls(time=float(raw["time"]), kind=EventType(raw["kind"]),
                   tid=int(raw["tid"]), detail=dict(raw.get("detail", {})))


class Tracer:
    """Collects :class:`TraceEvent` records during a run.

    ``sample_rate`` keeps only a deterministic per-transaction subset of
    the lifecycle records: a transaction is either fully traced or fully
    skipped, decided by a hash of its tid (no ambient randomness, so runs
    stay reproducible), and machine-level events (``tid < 0``) are always
    kept.  At the default rate 1.0 the tracer is bit-identical to an
    unsampled one.
    """

    #: Knuth's multiplicative hash constant (2^32 / golden ratio).
    _HASH_MULT = 2654435761
    _HASH_SPACE = 1 << 32

    def __init__(self, sample_rate: float = 1.0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must lie in [0, 1], got {sample_rate}")
        self.events: List[TraceEvent] = []
        self._sample_rate = sample_rate
        self._threshold = int(sample_rate * self._HASH_SPACE)

    @property
    def sample_rate(self) -> float:
        return self._sample_rate

    def wants(self, tid: int) -> bool:
        """Whether events of transaction ``tid`` are recorded."""
        if tid < 0 or self._threshold >= self._HASH_SPACE:
            return True
        return (tid * self._HASH_MULT) % self._HASH_SPACE < self._threshold

    def emit(self, time: float, kind: EventType, tid: int,
             **detail: Any) -> None:
        if self._threshold < self._HASH_SPACE and not self.wants(tid):
            return
        self.events.append(TraceEvent(time, kind, tid, dict(detail)))

    def __len__(self) -> int:
        return len(self.events)

    # -- queries ---------------------------------------------------------------

    def timeline(self, tid: int) -> List[TraceEvent]:
        """All events of one transaction, in time order."""
        return [e for e in self.events if e.tid == tid]

    def of_kind(self, kind: EventType) -> List[TraceEvent]:
        return [e for e in self.events if e.kind is kind]

    def count(self, kind: EventType) -> int:
        return sum(1 for e in self.events if e.kind is kind)

    def transactions(self) -> List[int]:
        return sorted({e.tid for e in self.events})

    def summary(self) -> Dict[str, int]:
        """Event counts per kind (stable key order)."""
        return {kind.value: self.count(kind) for kind in EventType}

    # -- persistence --------------------------------------------------------------

    def dump_jsonl(self, path: Union[str, Path]) -> None:
        """Write the trace as JSON lines."""
        with open(path, "w") as handle:
            for event in self.events:
                handle.write(event.to_json() + "\n")

    @classmethod
    def load_jsonl(cls, path: Union[str, Path]) -> "Tracer":
        tracer = cls()
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    tracer.events.append(TraceEvent.from_json(line))
        return tracer


def validate_trace(tracer: Tracer) -> None:
    """Check lifecycle well-formedness of every traced transaction.

    Raises :class:`SimulationError` on: time going backwards, events
    before arrival or after commit, commit without admission, or a
    granted step count that does not match dispatch/completion counts.

    Counts are per execution *attempt*: an ABORTED event (deadlock or
    injected fault) may legitimately leave a dispatch without its
    completion — the step died mid-flight — so the counters reset at
    each abort and the commit-time checks cover only the final,
    successful attempt.  Machine-level events (node crashes; ``tid``
    < 0) have no transaction lifecycle and are skipped.
    """
    for tid in tracer.transactions():
        if tid < 0:
            continue  # machine-level fault events, not a transaction
        events = tracer.timeline(tid)
        last_time = float("-inf")
        seen_arrival = seen_admit = seen_commit = False
        grants = dispatches = completions = 0
        for event in events:
            if event.time < last_time:
                raise SimulationError(
                    f"T{tid}: time went backwards at {event.kind.value}")
            last_time = event.time
            if seen_commit:
                raise SimulationError(
                    f"T{tid}: event {event.kind.value} after commit")
            if event.kind is EventType.ARRIVAL:
                if seen_arrival:
                    raise SimulationError(f"T{tid}: duplicate arrival")
                seen_arrival = True
                continue
            if not seen_arrival:
                raise SimulationError(
                    f"T{tid}: {event.kind.value} before arrival")
            if event.kind is EventType.ADMITTED:
                seen_admit = True
            elif event.kind is EventType.ABORTED:
                if not seen_admit:
                    raise SimulationError(
                        f"T{tid}: abort before admission")
                # A restart begins: the next attempt must re-admit, and
                # this attempt's grant/dispatch counts die with it (a
                # fault may have killed a step between dispatch and
                # completion).
                seen_admit = False
                grants = dispatches = completions = 0
            elif event.kind is EventType.COMMITTED:
                if not seen_admit:
                    raise SimulationError(f"T{tid}: commit without admission")
                seen_commit = True
            elif event.kind in (EventType.LOCK_GRANTED,):
                if not seen_admit:
                    raise SimulationError(
                        f"T{tid}: lock grant before admission")
                grants += 1
            elif event.kind is EventType.STEP_DISPATCHED:
                dispatches += 1
            elif event.kind is EventType.STEP_COMPLETED:
                completions += 1
        if seen_commit:
            if dispatches != completions:
                raise SimulationError(
                    f"T{tid}: {dispatches} dispatches vs "
                    f"{completions} completions")
            if grants < dispatches:
                raise SimulationError(
                    f"T{tid}: {dispatches} dispatches with only "
                    f"{grants} grants")
