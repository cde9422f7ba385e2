"""The all-pairs consistency check: every live pair, sharers or not.

:func:`repro.core.invariants.find_violations` checks invariants 2-4 only
on the pairs that can break them -- partition sharers and WTPG pair
edges -- which costs what the live state costs.  This oracle checks every
pair of live transactions, O(live²), and must report the very same list.
"""

from typing import List

from repro.core.locks import LockTable
from repro.core.wtpg import WTPG


def find_violations_all_pairs(table: LockTable, wtpg: WTPG) -> List[str]:
    """All violated invariants, each live pair examined in turn."""
    problems: List[str] = []

    registered = table.active_transactions
    nodes = wtpg.transactions
    if registered != nodes:
        problems.append(
            f"node set {sorted(nodes)} != registered {sorted(registered)}")

    # 2 + 3 + 4: edges vs declarations.
    tids = sorted(registered & nodes)
    for index, a in enumerate(tids):
        decls_a = table.declarations_of(a)
        for b in tids[index + 1:]:
            conflicts = table.conflicting_transactions(decls_a, b)
            edge = wtpg.pair(a, b)
            if conflicts and edge is None:
                problems.append(f"missing pair edge (T{a},T{b})")
                continue
            if edge is None:
                continue
            if not conflicts:
                problems.append(
                    f"pair edge (T{a},T{b}) without conflicting declarations")
                continue
            for mine, theirs in conflicts:
                # mine belongs to a, theirs to b.
                if edge.weight_to(mine.tid) + 1e-9 < mine.due:
                    problems.append(
                        f"w(T{theirs.tid}->T{mine.tid})="
                        f"{edge.weight_to(mine.tid):g} below due "
                        f"{mine.due:g}")
                if edge.weight_to(theirs.tid) + 1e-9 < theirs.due:
                    problems.append(
                        f"w(T{mine.tid}->T{theirs.tid})="
                        f"{edge.weight_to(theirs.tid):g} below due "
                        f"{theirs.due:g}")
                if table.is_granted(theirs) and not table.is_granted(mine):
                    if edge.resolved_to != mine.tid:
                        problems.append(
                            f"T{theirs.tid} holds P{theirs.partition} "
                            f"against T{mine.tid}'s pending declaration "
                            "but the pair is not resolved holder-first")
                if table.is_granted(mine) and not table.is_granted(theirs):
                    if edge.resolved_to != theirs.tid:
                        problems.append(
                            f"T{mine.tid} holds P{mine.partition} "
                            f"against T{theirs.tid}'s pending declaration "
                            "but the pair is not resolved holder-first")

    # 5: acyclicity.
    if wtpg.has_precedence_cycle():
        problems.append("precedence cycle (an unavoidable deadlock)")

    # 7: the incremental caches never drift from the ground truth.
    problems.extend(wtpg.cache_violations())

    # 6: source weights bounded by declared totals.
    for tid in tids:
        decls = table.declarations_of(tid)
        total = max((d.due for d in decls), default=0.0)
        if wtpg.source_weight(tid) > total + 1e-9:
            problems.append(
                f"w(T0->T{tid})={wtpg.source_weight(tid):g} exceeds "
                f"declared total {total:g}")

    return problems
