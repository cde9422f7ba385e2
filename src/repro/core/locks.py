"""Partition-granule lock table with pre-declared locks.

The control node keeps one lock table over partition granules (Section 2.2).
Each active transaction *declares* every lock it will ever need at start
time; a declaration carries the ``due`` value of its step (Section 3.1), so
WTPG weights can be computed directly from the table.  When the lock for a
step is granted, that declaration is consumed (the paper: "a lock-declaration
is replaced by a lock-request when T requests to hold this lock") and the
entry becomes a *hold*.  All holds persist until commit (strict locking for
recovery) and are released together.
"""

from __future__ import annotations

from typing import (Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.core.transaction import LockMode, TransactionSpec
from repro.errors import LockTableError
from repro.records import record


@record
class Declaration:
    """One declared (future or granted) lock of one step.

    ``due`` is the declared remaining work from the start of this step to
    the owning transaction's commit — attached to the lock table entry
    exactly as Section 3.1 prescribes.
    """

    tid: int
    step_index: int
    partition: int
    mode: LockMode
    due: float


class LockTable:
    """All declarations and holds, indexed by partition and transaction."""

    def __init__(self) -> None:
        # partition -> {(tid, step_index) -> Declaration}; pending only.
        self._pending: Dict[int, Dict[Tuple[int, int], Declaration]] = {}
        # partition -> {(tid, step_index) -> Declaration}; granted (holds).
        self._granted: Dict[int, Dict[Tuple[int, int], Declaration]] = {}
        # tid -> all its declarations (pending and granted alike).
        self._by_txn: Dict[int, List[Declaration]] = {}
        # tid -> partition -> its declarations there, in step order; built
        # at the first conflicting_transactions() query against tid (a
        # declaration set never changes while registered).
        self._by_txn_partition: Dict[int, Dict[int, List[Declaration]]] = {}

    # -- registration ------------------------------------------------------

    @staticmethod
    def declare(spec: TransactionSpec) -> List[Declaration]:
        """The lock-declarations of ``spec``, one per step in step order,
        built without entering them: admission judges a newcomer by
        these and hands them to :meth:`register` only if it admits."""
        tid, dues = spec.tid, spec.due
        return [Declaration(tid, index, step.partition, step.mode,
                            dues(index))
                for index, step in enumerate(spec.steps)]

    def register(self, spec: TransactionSpec,
                 declarations: Optional[List[Declaration]] = None) -> None:
        """Enter every lock-declaration of ``spec`` into the table.

        ``declarations`` is :meth:`declare` of ``spec`` when the caller
        already built it.
        """
        tid = spec.tid
        if tid in self._by_txn:
            raise LockTableError(f"T{tid} is already registered")
        if declarations is None:
            declarations = self.declare(spec)
        pending = self._pending
        for decl in declarations:
            entries = pending.get(decl.partition)
            if entries is None:
                entries = pending[decl.partition] = {}
            entries[(tid, decl.step_index)] = decl
        self._by_txn[tid] = declarations

    def unregister(self, tid: int) -> None:
        """Remove every entry of ``tid`` (commit or admission abort)."""
        decls = self._by_txn.pop(tid, None)
        if decls is None:
            raise LockTableError(f"T{tid} is not registered")
        self._by_txn_partition.pop(tid, None)
        for decl in decls:
            key = (decl.tid, decl.step_index)
            self._pending.get(decl.partition, {}).pop(key, None)
            self._granted.get(decl.partition, {}).pop(key, None)

    def is_registered(self, tid: int) -> bool:
        return tid in self._by_txn

    @property
    def active_transactions(self) -> Set[int]:
        return set(self._by_txn)

    # -- grants ------------------------------------------------------------

    def grant(self, tid: int, step_index: int) -> Declaration:
        """Convert the pending declaration of a step into a hold."""
        decl = self._find_declaration(tid, step_index)
        key = (tid, step_index)
        pending = self._pending.get(decl.partition, {})
        if key not in pending:
            raise LockTableError(
                f"lock for T{tid} step {step_index} was already granted")
        del pending[key]
        self._granted.setdefault(decl.partition, {})[key] = decl
        return decl

    def _find_declaration(self, tid: int, step_index: int) -> Declaration:
        for decl in self._by_txn.get(tid, ()):
            if decl.step_index == step_index:
                return decl
        raise LockTableError(f"T{tid} has no declaration for step {step_index}")

    # -- queries -----------------------------------------------------------

    def holds_on(self, partition: int) -> Tuple[Tuple[int, int], ...]:
        """Every hold on ``partition`` as ``(tid, step_index)``, in grant
        order: equal results mean equal holds there."""
        return tuple(self._granted.get(partition, ()))

    def held_mode(self, tid: int, partition: int) -> Optional[LockMode]:
        """Strongest mode ``tid`` currently holds on ``partition``."""
        strongest: Optional[LockMode] = None
        for (owner, _), decl in self._granted.get(partition, {}).items():
            if owner != tid:
                continue
            if decl.mode is LockMode.EXCLUSIVE:
                return LockMode.EXCLUSIVE
            strongest = LockMode.SHARED
        return strongest

    def holds(self, tid: int, partition: int, mode: LockMode) -> bool:
        """True if ``tid`` holds ``partition`` in ``mode`` or stronger."""
        held = self.held_mode(tid, partition)
        if held is None:
            return False
        return held is LockMode.EXCLUSIVE or mode is LockMode.SHARED

    def conflicting_holders(self, tid: int, partition: int,
                            mode: LockMode) -> Set[int]:
        """Other transactions holding ``partition`` in a conflicting mode."""
        out: Set[int] = set()
        for (owner, _), decl in self._granted.get(partition, {}).items():
            if owner != tid and decl.mode.conflicts_with(mode):
                out.add(owner)
        return out

    def pending_conflicts(self, tid: int, partition: int,
                          mode: LockMode) -> List[Declaration]:
        """Other transactions' pending declarations conflicting with a lock.

        This is the paper's ``C(q)`` for a request ``q`` by ``tid`` on
        ``partition`` in ``mode``.
        """
        return [decl for decl in self._pending.get(partition, {}).values()
                if decl.tid != tid and decl.mode.conflicts_with(mode)]

    def declarations_of(self, tid: int) -> Tuple[Declaration, ...]:
        """All declarations of ``tid`` (pending and granted)."""
        return tuple(self._by_txn.get(tid, ()))

    def pending_of(self, tid: int) -> Tuple[Declaration, ...]:
        """Declarations of ``tid`` whose locks are not yet granted."""
        return tuple(
            decl for decl in self._by_txn.get(tid, ())
            if (tid, decl.step_index) in self._pending.get(decl.partition, {}))

    def granted_of(self, tid: int) -> Tuple[Declaration, ...]:
        """Declarations of ``tid`` whose locks are currently held."""
        return tuple(
            decl for decl in self._by_txn.get(tid, ())
            if (tid, decl.step_index) in self._granted.get(decl.partition, {}))

    def k_conflict_violated(self, k: int, newcomer: TransactionSpec,
                            count: str = "declarations") -> bool:
        """The K-conflict constraint (Section 3.3) on an unregistered BAT.

        True if, with ``newcomer``'s declarations entered, some pending
        declaration would conflict with more than ``k`` others ("each
        lock-declaration may conflict with K lock-declarations at
        most").  Only the newcomer's partitions can change a count, so
        only those are judged, each from one tally of its pending
        declarations by owner and mode.

        ``count="declarations"`` (the paper's literal wording) counts
        conflicting declarations individually; ``count="transactions"``
        counts distinct conflicting transactions — a plausibly intended,
        looser reading (a read-then-upgrade pattern contributes two
        conflicting declarations per rival transaction under the literal
        one).  EXPERIMENTS.md discusses how the choice affects the
        Experiment 4 hybrid lower bounds.
        """
        if count not in ("declarations", "transactions"):
            raise LockTableError(f"unknown conflict count mode {count!r}")
        pending = self._pending
        # The newcomer's modes on each partition others declare; a
        # partition only it declares has no conflict to count.
        mine: Dict[int, List[LockMode]] = {}
        for step in newcomer.steps:
            if pending.get(step.partition):
                modes = mine.get(step.partition)
                if modes is None:
                    mine[step.partition] = [step.mode]
                else:
                    modes.append(step.mode)
        tid = newcomer.tid
        for partition, modes in mine.items():
            if _partition_conflict_peak(pending[partition], count,
                                        tid, modes) > k:
                return True
        return False

    def conflicting_transactions(self, spec_a: Iterable[Declaration],
                                 tid_b: int) -> List[Tuple[Declaration, Declaration]]:
        """All conflicting declaration pairs between ``spec_a`` and ``tid_b``."""
        pairs: List[Tuple[Declaration, Declaration]] = []
        by_partition = self._by_txn_partition.get(tid_b)
        if by_partition is None:
            if tid_b not in self._by_txn:
                return pairs
            by_partition = {}
            for decl in self._by_txn[tid_b]:
                by_partition.setdefault(decl.partition, []).append(decl)
            self._by_txn_partition[tid_b] = by_partition
        for decl_a in spec_a:
            for decl_b in by_partition.get(decl_a.partition, ()):
                if decl_a.mode.conflicts_with(decl_b.mode):
                    pairs.append((decl_a, decl_b))
        return pairs

    def partition_sharers(
            self, tid: int,
            declarations: Optional[Iterable[Declaration]] = None,
    ) -> List[int]:
        """Other transactions declaring any partition ``tid`` declares.

        Pending and granted declarations alike, in ascending tid order:
        every transaction :meth:`conflicting_transactions` can pair with
        ``tid`` is among them, so callers scan these instead of every
        active transaction.  ``declarations`` are ``tid``'s own when it
        is not registered (:meth:`declare`).
        """
        pending, granted = self._pending, self._granted
        if declarations is None:
            declarations = self._by_txn.get(tid, ())
        owners: Set[int] = set()
        for decl in declarations:
            for owner, _ in pending.get(decl.partition, ()):
                owners.add(owner)
            for owner, _ in granted.get(decl.partition, ()):
                owners.add(owner)
        owners.discard(tid)
        return sorted(owners)

    def is_granted(self, decl: Declaration) -> bool:
        """True if this declaration's lock is currently held."""
        return ((decl.tid, decl.step_index)
                in self._granted.get(decl.partition, {}))

    def snapshot(self) -> Dict[int, Dict[str, List[str]]]:
        """A readable dump of the table, for debugging and logging."""
        out: Dict[int, Dict[str, List[str]]] = {}
        partitions = set(self._pending) | set(self._granted)
        for partition in sorted(partitions):
            pend = [f"T{d.tid}.{d.step_index}:{d.mode}"
                    for d in self._pending.get(partition, {}).values()]
            held = [f"T{d.tid}.{d.step_index}:{d.mode}"
                    for d in self._granted.get(partition, {}).values()]
            if pend or held:
                out[partition] = {"pending": sorted(pend), "granted": sorted(held)}
        return out


def _partition_conflict_peak(entries: Dict[Tuple[int, int], Declaration],
                             count: str, newcomer: int,
                             modes: Sequence[LockMode]) -> int:
    """The largest conflict count among one partition's pending
    declarations and the newcomer's, in one pass over them.

    An exclusive declaration conflicts with every other owner's
    declaration, a shared one only with the other owners' exclusive
    ones.  So an owner with an exclusive declaration counts every other
    owner (``transactions``) or declaration (``declarations``), which is
    at least what any shared declaration counts, and an owner with only
    shared ones counts the writers or the exclusive declarations.

    ``modes`` are the declarations here of the unregistered transaction
    ``newcomer``, tallied as if they were among ``entries``.
    """
    exclusive_mine = 0
    for mode in modes:
        if mode is LockMode.EXCLUSIVE:
            exclusive_mine += 1
    if count == "transactions":
        owners: Set[int] = set()
        writer = exclusive_mine > 0
        for (owner, _), decl in entries.items():
            owners.add(owner)
            if decl.mode is LockMode.EXCLUSIVE:
                writer = True
        owners.add(newcomer)
        # Every owner but the writer itself; a shared-only owner counts
        # the writers, who are never more than that.
        return len(owners) - 1 if writer else 0
    sizes: Dict[int, int] = {}
    writers: Set[int] = set()
    exclusive = exclusive_mine
    for (owner, _), decl in entries.items():
        sizes[owner] = sizes.get(owner, 0) + 1
        if decl.mode is LockMode.EXCLUSIVE:
            exclusive += 1
            writers.add(owner)
    sizes[newcomer] = len(modes)
    if exclusive_mine:
        writers.add(newcomer)
    total = len(entries) + len(modes)
    peak = exclusive if len(writers) < len(sizes) else 0
    for owner in writers:
        peak = max(peak, total - sizes[owner])
    return peak
