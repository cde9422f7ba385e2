"""Per-control-node dependency logging, compaction and log replay.

Each control-plane shard appends one :class:`LogRecord` per
state-changing scheduler operation it performs: the *admission* of a
BAT's shard-local sub-declaration and every lock *grant* (with the
precedence *edges* the grant resolved).  Blocked/delayed requests are
deliberately absent — they do not mutate scheduler state, so a log of
only the state-changing operations, replayed in append order,
reconstructs the shard's lock table and WTPG exactly (dependency logging
in the sense of "Scaling Distributed Transaction Processing and Recovery
based on Dependency Logging": the log persists *outcomes* — the
dependencies — not the decision procedure that produced them, so replay
never re-runs an admission constraint or a grant rule).

The *commit* or *abort* that excises a BAT is not stored: it compacts
the log instead.  It drops every retained record of that tid — its
ADMIT and GRANT records and every EDGE naming it as predecessor or
successor — because replaying them would only rebuild state the excision
removes again.  Nothing else in the lock table or WTPG depends on an
excised BAT (its pairs go with its node, its locks with its
registration), so the retained records alone rebuild the live state,
and each compaction costs the records it drops.  The log is therefore
bounded by the live set, not by the run length.  Records keep their LSN
(their position in append order); ``len(log)`` is the end LSN, the count
of records ever appended, commits and aborts included.

One deliberate omission, documented in ``docs/control_plane.md``: the
per-object weight-adjustment messages are *not* logged (they would grow
the log with the bulk data volume rather than with the decision count).
A replayed WTPG therefore carries the conservative *declared* source
weights.  That is safe: weights only bias scheduling decisions
(``E(q)``/``W`` ordering), never correctness, and every WTPG invariant —
weight >= due, weight <= declared total, acyclicity, cache consistency —
holds at the declared upper bound.

:meth:`DependencyLog.replay` rebuilds a fresh scheduler from the
retained records and *proves* it consistent before handing it back:
:func:`repro.core.invariants.find_violations` (which includes
``cache_violations()``) must find nothing, otherwise recovery fails
loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

from repro.core import builder
from repro.core.invariants import find_violations
from repro.core.locks import LockTable
from repro.core.schedulers.base import Scheduler
from repro.core.transaction import LockMode, Step, TransactionSpec
from repro.core.wtpg import WTPG
from repro.errors import LockTableError, SchedulerError, WTPGError

# Retained record kinds, in the only order they can legally appear per
# (tid, attempt): ADMIT, then GRANT/EDGE interleaved.
ADMIT = "admit"
GRANT = "grant"
EDGE = "edge"


@dataclass(frozen=True)
class LogRecord:
    """One dependency-log entry.

    ``steps`` is only populated for ADMIT records (the shard-local
    sub-declaration: partition, mode value, actual cost, declared cost);
    ``step`` only for GRANT records (the shard-local step index);
    ``predecessor``/``successor`` only for EDGE records.
    """

    kind: str
    tid: int
    time: float
    steps: Tuple[Tuple[int, str, float, float], ...] = ()
    step: int = -1
    predecessor: int = -1
    successor: int = -1


class DependencyLog:
    """Self-compacting dependency log of one control-plane shard.

    The log models the shard's *durable* medium: it survives the shard's
    crash, and — one modelling simplification — surviving coordinators
    may still append ABORTs for transactions they abort while the shard
    is down, so that the excision lands before replay.

    ``retained`` maps LSN -> record for the records live transactions
    still depend on, in append order; ``_lsns`` maps each tid to the
    LSNs of the records naming it (an EDGE is listed under both ends).
    """

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.retained: Dict[int, LogRecord] = {}
        self._lsns: Dict[int, List[int]] = {}
        self._end = 0

    def __len__(self) -> int:
        return self._end

    def _retain(self, record: LogRecord, tids: Iterable[int]) -> None:
        lsn = self._end
        self._end += 1
        self.retained[lsn] = record
        for tid in tids:
            self._lsns.setdefault(tid, []).append(lsn)

    def _excise(self, tid: int) -> None:
        self._end += 1
        retained = self.retained
        for lsn in self._lsns.pop(tid, ()):
            # An EDGE is listed under both ends; the first excision of
            # either end already dropped it.
            retained.pop(lsn, None)

    # -- appends ---------------------------------------------------------------

    def append_admit(self, spec: TransactionSpec, now: float) -> None:
        steps = tuple(
            (step.partition, step.mode.value, step.cost,
             step.declared_cost if step.declared_cost is not None
             else step.cost)
            for step in spec.steps)
        self._retain(LogRecord(ADMIT, spec.tid, now, steps=steps),
                     (spec.tid,))

    def append_grant(self, tid: int, step_index: int, now: float,
                     resolved: Tuple[Tuple[int, int], ...] = ()) -> None:
        self._retain(LogRecord(GRANT, tid, now, step=step_index), (tid,))
        for predecessor, successor in resolved:
            self._retain(LogRecord(EDGE, tid, now, predecessor=predecessor,
                                   successor=successor),
                         (predecessor, successor))

    def append_commit(self, tid: int, now: float) -> None:
        self._excise(tid)

    def append_abort(self, tid: int, now: float) -> None:
        self._excise(tid)

    # -- replay ----------------------------------------------------------------

    def replay(self, scheduler_factory: Callable[[], Scheduler],
               ) -> Tuple[Scheduler, int]:
        """Rebuild a fresh scheduler from the retained records.

        Applies each retained record, in append order, directly to the
        new scheduler's lock table and WTPG — replay applies logged
        *outcomes*, it never re-decides — and then proves the result
        consistent with the full invariant suite (``cache_violations()``
        included).  A record the rebuilt state cannot take — a pair or
        tid it does not hold, a second registration — raises
        :class:`SchedulerError` naming the CN and the record's LSN,
        chained to the lock-table or WTPG error.  Returns
        ``(scheduler, lsn)``: ``lsn`` is ``len(self)``, the end of the
        log the scheduler was recovered to.
        """
        scheduler = scheduler_factory()
        # Duck-typed (not isinstance) so the factory may hand back a
        # delegating wrapper around a WTPG scheduler — the property
        # harness's invariant-checking proxy does exactly that.
        table = getattr(scheduler, "table", None)
        wtpg = getattr(scheduler, "wtpg", None)
        if table is None or wtpg is None:
            raise SchedulerError(
                f"dependency-log replay requires a WTPG scheduler, got "
                f"{type(scheduler).__name__}")
        for lsn, record in self.retained.items():
            try:
                _apply(record, table, wtpg)
            except (LockTableError, WTPGError) as exc:
                raise SchedulerError(
                    f"replay of CN {self.shard_id} failed at LSN {lsn} "
                    f"({record.kind} of T{record.tid}): {exc}") from exc
        violations = find_violations(table, wtpg)
        if violations:
            raise SchedulerError(
                f"replayed state of CN {self.shard_id} is inconsistent: "
                + "; ".join(violations))
        return scheduler, self._end


def _apply(record: LogRecord, table: LockTable, wtpg: WTPG) -> None:
    """Apply one retained record's outcome to the rebuilt state."""
    if record.kind == ADMIT:
        spec = TransactionSpec(record.tid, [
            Step(partition, LockMode(mode), cost, declared_cost=declared)
            for partition, mode, cost, declared in record.steps])
        table.register(spec)
        builder.add_transaction(wtpg, table, spec)
    elif record.kind == GRANT:
        try:
            table.grant(record.tid, record.step)
        except LockTableError:
            # Re-access of an already-held lock whose declaration an
            # earlier grant consumed — the live path swallows this too
            # (WTPGScheduler._consume_if_pending).
            pass
    else:  # EDGE
        wtpg.resolve(record.predecessor, record.successor)
