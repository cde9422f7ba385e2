"""Scheduler interface and the shared WTPG-keeping machinery.

A scheduler is a pure concurrency-control state machine: the machine model
(or a test) drives it through the transaction lifecycle and charges the CPU
costs it reports to the control node.  Nothing here knows about simulated
time except through the ``now`` arguments, which exist for the
control-saving rule of Section 3.4.

Lifecycle, as driven by the control plane (:mod:`repro.machine.shard`):

1. ``admit(txn, now)`` — declare all locks; scheduler-specific admission
   constraints (chain-form, K-conflict, ASL preclaiming) may reject, in
   which case the transaction is re-submitted after a fixed delay.
2. per step: ``request_lock(txn, now)`` — returns GRANT, BLOCK (conflicts
   with a current holder) or DELAY (policy decision); BLOCK/DELAY are
   retried after a fixed delay.  ``certify(txn, response)`` tells the
   retrying coordinator what a zero-cost BLOCK/DELAY read, so it can
   sleep until that changes instead of asking again at every retry.
3. per processed object: ``object_processed(txn)`` — the weight-adjustment
   message that decrements ``w(T0 -> Ti)``.
4. ``commit(txn, now)`` — release all locks, drop the WTPG node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from repro.core import builder
from repro.core.chain import would_remain_chain_form
from repro.core.locks import Declaration, LockTable
from repro.core.transaction import TransactionRuntime, TransactionSpec
from repro.core.wtpg import WTPG
from repro.errors import SchedulerError
from repro.records import record


class Decision(enum.Enum):
    """Outcome of a lock request."""

    GRANT = "grant"
    BLOCK = "block"   # conflicts with a current holder
    DELAY = "delay"   # policy: would deadlock / inconsistent / not minimal
    ABORT = "abort"   # deadlock victim (only schedulers that restart: 2PL)


@record
class LockResponse:
    """Decision plus the control-node CPU time the decision cost."""

    decision: Decision
    cpu_cost: float = 0.0
    reason: str = ""

    @property
    def granted(self) -> bool:
        return self.decision is Decision.GRANT


@record
class AdmissionResponse:
    """Outcome of the admission (start) test of a new transaction."""

    admitted: bool
    cpu_cost: float = 0.0
    reason: str = ""


#: The one merged verdict of a BAT every shard admits.
ADMITTED = AdmissionResponse(True)


def merge_admission_responses(
        responses: Sequence[AdmissionResponse]) -> AdmissionResponse:
    """Merge per-shard admission outcomes into one global decision.

    A sharded control plane runs the admission constraint independently
    on every participant shard — each consults only its own slice of the
    lock table and WTPG (its local ``E(q)``/``W`` state) — so the global
    verdict is the conjunction: the BAT starts only if *every* shard
    admits.  The first rejecting shard's reason wins, which is
    deterministic because shards are consulted in ascending shard id.
    The merged response carries no CPU cost: each shard's own response
    is charged on that shard's CPU.
    """
    if not responses:
        raise SchedulerError("cannot merge zero admission responses")
    for response in responses:
        if not response.admitted:
            return AdmissionResponse(False, reason=response.reason)
    return ADMITTED


def k_conflict_rejection(table: LockTable, spec: TransactionSpec, k: int,
                         count: str) -> Optional[str]:
    """The K-conflict constraint (Section 3.3) on an unregistered BAT.

    Rejects ``spec`` if, with its declarations entered, any pending
    declaration would conflict with more than ``k`` others; ``count``
    is the :meth:`LockTable.conflict_count` mode.  K-WTPG and K2-C2PL
    both admit by it.
    """
    if table.k_conflict_violated(k, count=count, newcomer=spec):
        return f"K-conflict constraint (K={k}) violated"
    return None


def chain_form_rejection(wtpg: WTPG, tid: int,
                         partners: builder.PartnerConflicts) -> Optional[str]:
    """The chain-form constraint (Step 0 of CC1) on an unregistered BAT.

    Rejects ``tid`` if pair edges to its conflict partners would leave
    the WTPG not chain-form.  CHAIN and CHAIN-C2PL both admit by it.
    """
    if not would_remain_chain_form(wtpg, tid, partners):
        return "WTPG would not be chain-form"
    return None


class Certificate:
    """What a zero-cost refusal read, stamped when it was given.

    ``read()`` returns a stamp of every input the verdict read; while it
    returns the stamp taken at the refusal (:meth:`holds`) and
    ``expired(t)`` is false, asking again at ``t`` gives the same verdict
    at no cost.  ``expired`` is None when time alone never changes the
    verdict.  ``credit(polls)`` adds to the scheduler's counters what
    ``polls`` such repeated requests would have added.
    """

    __slots__ = ("_read", "_stamp", "expired", "credit")

    def __init__(self, read: Callable[[], Hashable],
                 credit: Callable[[int], None],
                 expired: Optional[Callable[[float], bool]] = None) -> None:
        self._read = read
        self._stamp = read()
        self.credit = credit
        self.expired = expired

    def holds(self) -> bool:
        return self._read() == self._stamp


@dataclass
class SchedulerStats:
    """Counters for reporting and debugging; purely observational."""

    admissions: int = 0
    admission_rejects: int = 0
    grants: int = 0
    blocks: int = 0
    delays: int = 0
    aborts: int = 0               # mid-flight deadlock victims (2PL only)
    commits: int = 0
    optimizations: int = 0        # W recomputations (CHAIN)
    estimator_calls: int = 0      # E(q) evaluations charged to the CN
    deadlock_predictions: int = 0
    control_cpu: float = 0.0      # total CPU cost reported

    def as_dict(self) -> Dict[str, float]:
        return dict(self.__dict__)


class Scheduler:
    """Abstract base; concrete schedulers override the hook methods."""

    name = "abstract"

    def __init__(self) -> None:
        self.stats = SchedulerStats()

    # -- lifecycle (public API) --------------------------------------------

    def admit(self, txn: TransactionRuntime, now: float = 0.0) -> AdmissionResponse:
        response = self._admit(txn, now)
        self.stats.admissions += 1
        self.stats.control_cpu += response.cpu_cost
        if not response.admitted:
            self.stats.admission_rejects += 1
        return response

    def request_lock(self, txn: TransactionRuntime,
                     now: float = 0.0) -> LockResponse:
        response = self._request_lock(txn, now)
        self.stats.control_cpu += response.cpu_cost
        if response.decision is Decision.GRANT:
            self.stats.grants += 1
        elif response.decision is Decision.BLOCK:
            self.stats.blocks += 1
        elif response.decision is Decision.ABORT:
            self.stats.aborts += 1
        else:
            self.stats.delays += 1
        return response

    def certify(self, txn: TransactionRuntime,
                response: LockResponse) -> Optional[Certificate]:
        """The :class:`Certificate` of a BLOCK or DELAY that cost nothing.

        Asked right after :meth:`request_lock` refused ``txn`` at zero
        cost.  None, the default, means the verdict cannot be certified
        and the coordinator asks again at every retry.
        """
        return None

    def abort_transaction(self, txn: TransactionRuntime,
                          now: float = 0.0) -> Tuple[int, ...]:
        """Release an aborted transaction's scheduler state.

        Called for deadlock victims (2PL, WAIT-DIE) and for externally
        injected aborts (:mod:`repro.faults`) — the paper's schedulers
        never *choose* to abort a BAT, but they must survive one being
        aborted under them.  Returns the tids of the victim's direct
        precedence successors (transactions already ordered *after* it),
        which the machine uses for cascade-abort accounting; schedulers
        without a precedence graph return ``()``.

        Does not touch :attr:`stats` — abort accounting lives in the
        metrics layer, keyed by cause.
        """
        return ()

    def object_processed(self, txn: TransactionRuntime,
                         objects: float = 1.0) -> None:
        """Weight-adjustment message: ``objects`` of bulk work finished.

        Normally one whole object; the final quantum of a fractional-cost
        step (e.g. the 0.2-object write of Pattern1) reports less.
        """
        txn.note_object_processed(objects)
        self._object_processed(txn, objects)

    def object_processed_batch(self, txn: TransactionRuntime,
                               full_quanta: int) -> None:
        """``full_quanta`` whole-object weight adjustments in one call.

        Contract: must be bit-identical to ``full_quanta`` successive
        calls of :meth:`object_processed` with ``objects=1.0``.  The base
        implementation simply loops (always safe); schedulers whose
        per-object hook coalesces exactly may override — the batched
        data-node path calls this once per run of uninterrupted whole
        quanta instead of once per object.
        """
        for _ in range(full_quanta):
            self.object_processed(txn, 1.0)

    def commit(self, txn: TransactionRuntime, now: float = 0.0) -> None:
        self._commit(txn, now)
        self.stats.commits += 1

    # -- hooks ----------------------------------------------------------------

    def _admit(self, txn: TransactionRuntime, now: float) -> AdmissionResponse:
        raise NotImplementedError

    def _request_lock(self, txn: TransactionRuntime, now: float) -> LockResponse:
        raise NotImplementedError

    def _object_processed(self, txn: TransactionRuntime,
                          objects: float = 1.0) -> None:
        """Optional hook; default does nothing beyond runtime bookkeeping."""

    def _commit(self, txn: TransactionRuntime, now: float) -> None:
        raise NotImplementedError


class WTPGScheduler(Scheduler):
    """Shared machinery for schedulers that keep a lock table and a WTPG.

    Subclasses implement :meth:`_admission_constraint` (return a rejection
    reason or None) and :meth:`_evaluate_grant` (GRANT or DELAY a
    non-blocked request given its rivals and implied resolutions).
    """

    def __init__(self) -> None:
        super().__init__()
        self.table = LockTable()
        self.wtpg = WTPG()
        # Pair edges newly resolved by the most recent granted request —
        # the facts a dependency log must persist to replay this
        # scheduler's WTPG after a control-node crash.
        self.last_resolved: Tuple[Tuple[int, int], ...] = ()

    # -- admission --------------------------------------------------------------

    def _admit(self, txn: TransactionRuntime, now: float) -> AdmissionResponse:
        """Decide first, register only an admitted BAT.

        The lock-table constraint reads the table alone; the newcomer's
        declarations and its partner map are built only if it passes,
        and one pass over its partition sharers serves both the
        partner-map constraint and the WTPG insertion.  A rejected BAT
        leaves the table and the WTPG untouched.
        """
        spec, table = txn.spec, self.table
        reason = self._table_constraint(spec)
        if reason is None:
            own = table.declare(spec)
            partners = builder.partner_conflicts(table, spec, own)
            reason = self._admission_constraint(txn, partners, now)
            if reason is None:
                table.register(spec, own)
                builder.add_transaction(self.wtpg, table, spec, partners)
                self._after_admit(txn, now)
                return AdmissionResponse(True,
                                         cpu_cost=self._admission_cost())
        return AdmissionResponse(False, cpu_cost=self._admission_cost(),
                                 reason=reason)

    def _table_constraint(self, spec: TransactionSpec) -> Optional[str]:
        """Rejection reason, or None, read from the lock table alone with
        ``spec`` not registered; decided before the partner map."""
        return None

    def _admission_constraint(self, txn: TransactionRuntime,
                              partners: builder.PartnerConflicts,
                              now: float) -> Optional[str]:
        """Rejection reason, or None; ``partners`` maps each conflict
        partner to its conflicting declaration pairs (the newcomer is not
        registered yet)."""
        return None

    def _admission_cost(self) -> float:
        return 0.0

    def _after_admit(self, txn: TransactionRuntime, now: float) -> None:
        """Hook: e.g. invalidate cached optimisation state."""

    # -- lock requests -------------------------------------------------------------

    def _request_lock(self, txn: TransactionRuntime, now: float) -> LockResponse:
        step = txn.step()
        tid = txn.tid
        self.last_resolved = ()
        if self.table.holds(tid, step.partition, step.mode):
            # Re-access of an already held (or stronger) lock: consume the
            # pending declaration if one exists for this step.
            self._consume_if_pending(tid, txn.current_step)
            return LockResponse(Decision.GRANT, reason="already held")
        holders = self.table.conflicting_holders(tid, step.partition, step.mode)
        if holders:
            return LockResponse(
                Decision.BLOCK, cpu_cost=self._block_check_cost(),
                reason=f"blocked by holders {sorted(holders)}")
        # C(q), read once for the implied resolutions and the grant rule.
        rivals = self.table.pending_conflicts(tid, step.partition, step.mode)
        # A sorted, hashable tuple — schedulers may key caches on it.
        implied = builder.implied_resolutions(
            self.table, self.wtpg, tid, step.partition, step.mode, rivals)
        response = self._evaluate_grant(txn, implied, rivals, now)
        if response.decision is Decision.GRANT:
            self._apply_grant(txn, implied, now)
        return response

    def certify(self, txn: TransactionRuntime,
                response: LockResponse) -> Optional[Certificate]:
        """A holder BLOCK read the partition's holds and nothing else:
        the requester's own holds change only through its own requests."""
        if response.decision is not Decision.BLOCK:
            return None
        table, partition = self.table, txn.step().partition
        return Certificate(partial(table.holds_on, partition),
                           self._credit_blocks)

    def _credit_blocks(self, polls: int) -> None:
        self.stats.blocks += polls

    def _consume_if_pending(self, tid: int, step_index: int) -> None:
        from repro.errors import LockTableError
        try:
            self.table.grant(tid, step_index)
        except LockTableError:
            pass  # declaration already consumed by an earlier grant

    def _block_check_cost(self) -> float:
        return 0.0

    def _evaluate_grant(self, txn: TransactionRuntime,
                        implied: Sequence[Tuple[int, int]],
                        rivals: Sequence[Declaration],
                        now: float) -> LockResponse:
        """GRANT or DELAY a request no holder blocks; ``rivals`` is its
        ``C(q)`` and ``implied`` the resolutions granting it forces."""
        raise NotImplementedError

    def _apply_grant(self, txn: TransactionRuntime,
                     implied: Sequence[Tuple[int, int]], now: float) -> None:
        self.table.grant(txn.tid, txn.current_step)
        newly_resolved = []
        for predecessor, successor in implied:
            pair = self.wtpg.pair(predecessor, successor)
            if pair is None:
                raise SchedulerError(
                    f"implied resolution T{predecessor}->T{successor} "
                    "without a pair edge")
            if not pair.resolved:
                newly_resolved.append((predecessor, successor))
            self.wtpg.resolve(predecessor, successor)
        self.last_resolved = tuple(newly_resolved)
        if newly_resolved:
            self._on_new_precedence_edge(now)

    def _on_new_precedence_edge(self, now: float) -> None:
        """Hook: condition 3) of the control-saving rule (K-WTPG)."""

    # -- progress / commit ----------------------------------------------------------

    def _object_processed(self, txn: TransactionRuntime,
                          objects: float = 1.0) -> None:
        if txn.tid in self.wtpg:
            self.wtpg.decrement_source(txn.tid, objects)

    def object_processed_batch(self, txn: TransactionRuntime,
                               full_quanta: int) -> None:
        """Coalesced whole-object adjustments (see the base contract).

        Exact because both sinks only *subtract clamped integers* from
        positive doubles — always exact, so one subtraction of
        ``float(full_quanta)`` equals the unit-subtraction chain — and
        the WTPG generation counter bumps once instead of per object,
        which is unobservable (generation values only guard caches and
        any bump invalidates them).
        """
        txn.note_objects_batch(full_quanta)
        if txn.tid in self.wtpg:
            self.wtpg.decrement_source(txn.tid, float(full_quanta))

    def _commit(self, txn: TransactionRuntime, now: float) -> None:
        builder.remove_transaction(self.wtpg, self.table, txn.tid)
        self._after_commit(txn, now)

    def _after_commit(self, txn: TransactionRuntime, now: float) -> None:
        """Hook: e.g. invalidate cached optimisation state."""

    # -- abort ------------------------------------------------------------------

    def abort_transaction(self, txn: TransactionRuntime,
                          now: float = 0.0) -> Tuple[int, ...]:
        """Excise an aborted transaction from the lock table and WTPG.

        Releases every lock declaration and removes the WTPG node with
        its incident pair edges (generation counters bump inside
        :meth:`WTPG.remove_transaction`, keeping invariant 7); implied
        resolutions involving the victim die with its edges, and the
        survivors' orders are recomputed lazily by the next lock
        request.  The victim's direct precedence successors — captured
        *before* excision — are returned for cascade accounting.
        """
        tid = txn.tid
        if tid not in self.wtpg:
            # Aborted between admission attempts (or doubly aborted):
            # only a lock-table registration may remain.
            if self.table.is_registered(tid):
                self.table.unregister(tid)
            return ()
        successors = tuple(sorted(self.wtpg.successors(tid)))
        builder.remove_transaction(self.wtpg, self.table, tid)
        self._after_abort(txn, now)
        return successors

    def _after_abort(self, txn: TransactionRuntime, now: float) -> None:
        """Hook: drop cached control state that may reference the victim."""


class ControlSaver:
    """The control-saving rule of Section 3.4.

    Cached control results (the full SR-order W; E(q) values) are reused
    until (1) ``keeptime`` elapses since the last computation, or (2) a
    transaction commits or starts.  Callers mark events via
    :meth:`invalidate` and ask :meth:`stale` before reusing a cache.
    ``epoch`` counts both marks, so a stamp of it tells whether the
    cache was recomputed or invalidated since.
    """

    def __init__(self, keeptime: float) -> None:
        if keeptime < 0:
            raise SchedulerError("keeptime must be non-negative")
        self.keeptime = keeptime
        self._computed_at: Optional[float] = None
        self._dirty = True
        self.epoch = 0

    def stale(self, now: float) -> bool:
        if self._dirty or self._computed_at is None:
            return True
        return (now - self._computed_at) >= self.keeptime

    def mark_computed(self, now: float) -> None:
        self._computed_at = now
        self._dirty = False
        self.epoch += 1

    def invalidate(self) -> None:
        self._dirty = True
        self.epoch += 1
