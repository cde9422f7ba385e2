"""The append-only dependency log: every record kept, every record replayed.

:class:`repro.machine.control_log.DependencyLog` compacts itself: a
COMMIT or ABORT drops the excised BAT's ADMIT, GRANT and EDGE records
instead of being stored.  This oracle is the log before compaction — it
keeps every record, COMMIT and ABORT included, and its replay applies
all of them in append order, excising each finished BAT the way the
live scheduler did.  It is slow on purpose: replay grows with the run.

:func:`full_log_differential` swaps a twin-writing log into every
control shard of a run and, at every recovery, replays the full twin
next to the compacted log and asserts the two rebuilt states equal.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple
from unittest import mock

from repro.core import builder
from repro.core.invariants import check_consistency, find_violations
from repro.core.schedulers.base import Scheduler
from repro.core.transaction import LockMode, Step, TransactionSpec
from repro.errors import LockTableError, SchedulerError
from repro.machine import shard as shard_module
from repro.machine.control_log import (ADMIT, EDGE, GRANT, DependencyLog,
                                       LogRecord)
from tests.oracles.invariants import find_violations_all_pairs

COMMIT = "commit"
ABORT = "abort"


class FullDependencyLog:
    """Append-only dependency log of one control-plane shard."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.records: List[LogRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def append_admit(self, spec: TransactionSpec, now: float) -> None:
        steps = tuple(
            (step.partition, step.mode.value, step.cost,
             step.declared_cost if step.declared_cost is not None
             else step.cost)
            for step in spec.steps)
        self.records.append(LogRecord(ADMIT, spec.tid, now, steps=steps))

    def append_grant(self, tid: int, step_index: int, now: float,
                     resolved: Tuple[Tuple[int, int], ...] = ()) -> None:
        self.records.append(LogRecord(GRANT, tid, now, step=step_index))
        for predecessor, successor in resolved:
            self.records.append(LogRecord(EDGE, tid, now,
                                          predecessor=predecessor,
                                          successor=successor))

    def append_commit(self, tid: int, now: float) -> None:
        self.records.append(LogRecord(COMMIT, tid, now))

    def append_abort(self, tid: int, now: float) -> None:
        self.records.append(LogRecord(ABORT, tid, now))

    def replay(self, scheduler_factory: Callable[[], Scheduler],
               ) -> Tuple[Scheduler, int]:
        """Rebuild a fresh scheduler from every record; prove it."""
        scheduler = scheduler_factory()
        table = getattr(scheduler, "table")
        wtpg = getattr(scheduler, "wtpg")
        for record in self.records:
            if record.kind == ADMIT:
                spec = TransactionSpec(record.tid, [
                    Step(partition, LockMode(mode), cost,
                         declared_cost=declared)
                    for partition, mode, cost, declared in record.steps])
                table.register(spec)
                builder.add_transaction(wtpg, table, spec)
            elif record.kind == GRANT:
                try:
                    table.grant(record.tid, record.step)
                except LockTableError:
                    pass  # re-access of an already-held lock
            elif record.kind == EDGE:
                wtpg.resolve(record.predecessor, record.successor)
            elif record.kind == COMMIT:
                builder.remove_transaction(wtpg, table, record.tid)
            elif record.kind == ABORT:
                if record.tid in wtpg:
                    builder.remove_transaction(wtpg, table, record.tid)
                elif table.is_registered(record.tid):
                    table.unregister(record.tid)
            else:
                raise SchedulerError(
                    f"unknown dependency-log record kind {record.kind!r}")
        violations = wtpg.cache_violations()
        if violations:
            raise SchedulerError(
                f"replayed WTPG of CN {self.shard_id} is inconsistent: "
                f"{violations}")
        check_consistency(table, wtpg)
        # The replayed state is where the runtime's consistency proof
        # runs: it must see what the all-pairs check sees.
        assert find_violations(table, wtpg) == find_violations_all_pairs(
            table, wtpg), f"consistency check of CN {self.shard_id} " \
            "missed a pair"
        return scheduler, len(self.records)


def replay_state(scheduler) -> tuple:
    """Everything a replay rebuilds: the lock table, the WTPG nodes,
    every pair edge with its resolution and both directed weights, and
    every source weight."""
    table = getattr(scheduler, "table")
    wtpg = getattr(scheduler, "wtpg")
    pairs = sorted(
        (min(e.a, e.b), max(e.a, e.b), e.resolved_to,
         e.weight_to(min(e.a, e.b)), e.weight_to(max(e.a, e.b)))
        for e in wtpg.pairs())
    sources = {tid: wtpg.source_weight(tid)
               for tid in sorted(wtpg.transactions)}
    return (table.snapshot(), sorted(wtpg.transactions), pairs, sources)


@dataclass
class DifferentialCounts:
    """What the differential compared, so a test can show it ran."""

    recoveries: int = 0
    compactions: int = 0   # COMMIT/ABORT appends checked
    # ABORT records that reached a shard's log while the shard was down.
    aborts_while_down: int = 0


def names(record: LogRecord) -> Tuple[int, ...]:
    """The tids whose excision must drop ``record``."""
    if record.kind == EDGE:
        return (record.predecessor, record.successor)
    return (record.tid,)


class TwinDependencyLog(DependencyLog):
    """The compacting log, with every append mirrored into ``full``.

    ``expected`` is compaction by definition: the full log's
    (LSN, record) pairs minus every record naming a tid excised since,
    filtered by a scan instead of the per-tid index.  After every COMMIT
    or ABORT the retained records must equal it.
    """

    def __init__(self, shard_id: int,
                 reference_factory: Callable[[], Scheduler],
                 counts: DifferentialCounts) -> None:
        super().__init__(shard_id)
        self.full = FullDependencyLog(shard_id)
        self.expected: List[Tuple[int, LogRecord]] = []
        self.reference_factory = reference_factory
        self.counts = counts
        # Length of ``full`` when the shard last crashed.
        self.crashed_at_record = 0

    def _mirror(self, first: int) -> None:
        self.expected.extend(enumerate(self.full.records[first:], first))

    def append_admit(self, spec: TransactionSpec, now: float) -> None:
        super().append_admit(spec, now)
        first = len(self.full)
        self.full.append_admit(spec, now)
        self._mirror(first)

    def append_grant(self, tid: int, step_index: int, now: float,
                     resolved: Tuple[Tuple[int, int], ...] = ()) -> None:
        super().append_grant(tid, step_index, now, resolved)
        first = len(self.full)
        self.full.append_grant(tid, step_index, now, resolved)
        self._mirror(first)

    def append_commit(self, tid: int, now: float) -> None:
        super().append_commit(tid, now)
        self.full.append_commit(tid, now)
        self._check_compaction(tid)

    def append_abort(self, tid: int, now: float) -> None:
        super().append_abort(tid, now)
        self.full.append_abort(tid, now)
        self._check_compaction(tid)

    def _check_compaction(self, tid: int) -> None:
        self.expected = [(lsn, record) for lsn, record in self.expected
                         if tid not in names(record)]
        assert list(self.retained.items()) == self.expected, (
            f"CN {self.shard_id}: excising T{tid} left "
            f"{sorted(self.retained)}, expected "
            f"{[lsn for lsn, _ in self.expected]}")
        assert len(self) == len(self.full)
        self.counts.compactions += 1

    def check_against_full(self, recovered: Optional[Scheduler] = None,
                           ) -> None:
        """Full replay must rebuild what ``recovered`` holds (default: a
        fresh replay of the compacted log) at the same LSN."""
        if recovered is None:
            recovered, _ = self.replay(self.reference_factory)
        reference, records = self.full.replay(self.reference_factory)
        assert records == len(self), (
            f"CN {self.shard_id}: LSN {len(self)}, full log has {records}")
        compacted, expected = replay_state(recovered), replay_state(reference)
        assert compacted == expected, (
            f"CN {self.shard_id} at LSN {records}: compacted replay "
            f"{compacted} != full replay {expected}")


@contextmanager
def full_log_differential(reference_factory: Callable[[], Scheduler],
                          ) -> Iterator[DifferentialCounts]:
    """Check the compacted log against the full one throughout a run.

    Every control shard built inside the block logs into a
    :class:`TwinDependencyLog`, which checks each compaction against
    its definition.  Each ``ControlPlane.recover_shard`` replays the
    compacted log as usual, and the scheduler it installs must equal a
    full replay of the append-only twin.
    """
    counts = DifferentialCounts()
    crash = shard_module.ControlPlane.crash_shard
    recover = shard_module.ControlPlane.recover_shard

    def twin(shard_id: int) -> TwinDependencyLog:
        return TwinDependencyLog(shard_id, reference_factory, counts)

    def crash_marked(plane, sid: int) -> List[int]:
        log = plane.shards[sid].log
        if log is not None:
            log.crashed_at_record = len(log.full)
        return crash(plane, sid)

    def recover_checked(plane, sid: int) -> int:
        shard = plane.shards[sid]
        recovered = recover(plane, sid)
        assert recovered == len(shard.log)
        shard.log.check_against_full(shard.scheduler)
        counts.recoveries += 1
        counts.aborts_while_down += sum(
            1 for record in shard.log.full.records[
                shard.log.crashed_at_record:]
            if record.kind == ABORT)
        return recovered

    plane = shard_module.ControlPlane
    with mock.patch.object(shard_module, "DependencyLog", twin), \
            mock.patch.object(plane, "crash_shard", crash_marked), \
            mock.patch.object(plane, "recover_shard", recover_checked):
        yield counts
