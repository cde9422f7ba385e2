"""Wiring between the lock table and the WTPG.

When a transaction starts it declares its steps; this module derives the
WTPG node and pair edges that Section 3.1 prescribes:

* the node gets source weight ``w(T0 -> Ti) = due(s_0)`` (its declared
  total);
* for every conflicting pair of declarations between the newcomer ``Ti``
  and an active ``Tj``, the pair edge's directed weights are raised to the
  ``due`` values of the conflicting steps (max over all conflicting step
  pairs);
* if ``Tj`` already *holds* a lock conflicting with one of ``Ti``'s
  declarations, the serialization order is already forced (the holder
  keeps the lock until commit, so it must precede the newcomer): the pair
  is created pre-resolved ``Tj -> Ti``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.locks import Declaration, LockTable
from repro.core.transaction import LockMode, TransactionSpec
from repro.core.wtpg import WTPG
from repro.errors import WTPGError


#: Conflict partner -> its conflicting ``(newcomer's, partner's)``
#: declaration pairs, in ascending partner order.
PartnerConflicts = Dict[int, List[Tuple[Declaration, Declaration]]]


def partner_conflicts(table: LockTable, spec: TransactionSpec,
                      own: Optional[Sequence[Declaration]] = None,
                      ) -> PartnerConflicts:
    """Every registered transaction whose declarations conflict with spec's.

    ``own`` is ``table.declare(spec)`` when spec is not registered (an
    admission deciding before it registers); without it, spec must be
    registered and its entered declarations are used.  The map is the
    same either way.  Only transactions declaring one of spec's
    partitions can conflict with it, so this asks
    :meth:`LockTable.conflicting_transactions` once per partition sharer
    (:meth:`LockTable.partition_sharers`, ascending), never of the rest.
    """
    if own is None:
        own = table.declarations_of(spec.tid)
    partners: PartnerConflicts = {}
    for other_tid in table.partition_sharers(spec.tid, own):
        conflicts = table.conflicting_transactions(own, other_tid)
        if conflicts:
            partners[other_tid] = conflicts
    return partners


def add_transaction(wtpg: WTPG, table: LockTable, spec: TransactionSpec,
                    partners: Optional[PartnerConflicts] = None) -> Set[int]:
    """Insert ``spec`` into the WTPG with all pair edges and weights.

    The transaction must already be registered in ``table``.
    ``partners`` is :func:`partner_conflicts` of ``spec`` when the caller
    already has it (admission computes it once for its constraint and
    for this insertion); it is computed here otherwise.  Returns the set
    of conflict partners that got a pair edge.  Pairs against holders of
    conflicting locks are pre-resolved ``holder -> newcomer``.
    """
    tid = spec.tid
    if not table.is_registered(tid):
        raise WTPGError(f"T{tid} must be registered in the lock table first")
    if partners is None:
        partners = partner_conflicts(table, spec)
    wtpg.add_transaction(tid, spec.declared_total)

    linked: Set[int] = set()
    for other_tid, conflicts in partners.items():
        if other_tid not in wtpg:
            continue
        linked.add(other_tid)
        edge = wtpg.ensure_pair(tid, other_tid)
        forced = False
        for mine, theirs in conflicts:
            # w(other -> me) = due of my conflicting step, and vice versa.
            edge.raise_weight_to(tid, mine.due)
            edge.raise_weight_to(other_tid, theirs.due)
            if table.is_granted(theirs):
                forced = True
        if forced:
            # The holder commits before the newcomer can take the lock.
            wtpg.resolve(other_tid, tid)
    return linked


def remove_transaction(wtpg: WTPG, table: LockTable, tid: int) -> None:
    """Drop ``tid`` from both structures (commit or admission abort)."""
    wtpg.remove_transaction(tid)
    table.unregister(tid)


def implied_resolutions(table: LockTable, wtpg: WTPG, tid: int,
                        partition: int, mode: LockMode,
                        pending: Optional[Sequence[Declaration]] = None,
                        ) -> Tuple[Tuple[int, int], ...]:
    """Resolutions forced by granting ``tid`` a lock on ``partition``.

    Every other active transaction with a pending conflicting declaration
    on the partition must now follow ``tid`` (it can only take that lock
    after ``tid`` commits).  Returned as ``(tid, other)`` pairs; pairs
    already resolved the same way are included (resolving is idempotent),
    pairs resolved the *other* way are included too — callers treat those
    as predicted deadlocks.

    The result is a sorted *tuple* so it is hashable as-is: the K-WTPG
    scheduler keys its E-value cache on it.  ``pending`` is the request's
    ``table.pending_conflicts`` when the caller already has it.
    """
    if pending is None:
        pending = table.pending_conflicts(tid, partition, mode)
    seen: Set[int] = set()
    out: List[Tuple[int, int]] = []
    for decl in pending:
        if decl.tid in seen or decl.tid not in wtpg:
            continue
        seen.add(decl.tid)
        out.append((tid, decl.tid))
    return tuple(sorted(out, key=lambda pair: pair[1]))
