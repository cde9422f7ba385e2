"""The K-conflict constraint read literally off a registered lock table.

Admission judges an unregistered newcomer
(:meth:`repro.core.locks.LockTable.k_conflict_violated`) from one tally
per partition it declares.  This oracle is the definition that tally is
held equal to: register the newcomer, then ask every pending
declaration for ``|C(q)|``, the pending declarations of other
transactions it conflicts with (Section 3.3: "each lock-declaration may
conflict with K lock-declarations at most").
"""

from typing import Iterable, List, Optional

from repro.core.locks import Declaration, LockTable
from repro.errors import LockTableError


def pending_declarations(table: LockTable) -> List[Declaration]:
    """Every pending declaration of the table, by tid."""
    return [decl for tid in sorted(table.active_transactions)
            for decl in table.pending_of(tid)]


def conflict_count(table: LockTable, decl: Declaration,
                   count: str = "declarations") -> int:
    """``|C(q)|`` of ``decl`` viewed as a future request.

    ``count="declarations"`` counts conflicting declarations,
    ``count="transactions"`` the distinct transactions owning them.
    """
    rivals = [other for other in pending_declarations(table)
              if other.tid != decl.tid and other.partition == decl.partition
              and other.mode.conflicts_with(decl.mode)]
    if count == "declarations":
        return len(rivals)
    if count == "transactions":
        return len({other.tid for other in rivals})
    raise LockTableError(f"unknown conflict count mode {count!r}")


def k_conflict_violated(table: LockTable, k: int,
                        partitions: Optional[Iterable[int]] = None,
                        count: str = "declarations") -> bool:
    """True if a pending declaration (on ``partitions``, when given)
    conflicts with more than ``k`` others."""
    scope = None if partitions is None else set(partitions)
    return any(conflict_count(table, decl, count) > k
               for decl in pending_declarations(table)
               if scope is None or decl.partition in scope)
