"""Cross-structure consistency checks (scheduler paranoia mode).

A WTPG-based scheduler maintains two views of the same reality: the lock
table (declarations + holds) and the graph (nodes + pair edges).  These
checks verify they agree; the test suite runs them against live
schedulers mid-workload, and they are cheap enough to call from
debugging sessions on any :class:`~repro.core.schedulers.base.WTPGScheduler`.

Checked invariants:

1. node set == registered transaction set;
2. every pair edge corresponds to at least one conflicting declaration
   pair, and every conflicting declaration pair has its edge;
3. pair weights are at least the dues of the conflicting steps (weights
   only ever grow by the max rule);
4. holders against pending conflicting declarations imply the pair is
   resolved holder-first;
5. the precedence relation is acyclic (a cycle would be an already-lost
   deadlock — cautious schedulers must never reach it);
6. source weights never exceed the transaction's declared total;
7. the WTPG's incrementally maintained caches (topological order,
   closures, critical-path dist) agree with a fresh recomputation
   (:meth:`~repro.core.wtpg.WTPG.cache_violations`).

Invariants 2-4 are checked on the pairs that can break them -- pairs
sharing a partition and WTPG pair edges -- not on every live pair, so
the proof costs what the live state costs.  The all-pairs check is the
test oracle ``tests/oracles/invariants.py``; the property harness holds
the two equal.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.locks import LockTable
from repro.core.wtpg import WTPG
from repro.errors import SchedulerError


def check_consistency(table: LockTable, wtpg: WTPG) -> None:
    """Raise :class:`SchedulerError` on the first violated invariant."""
    problems = find_violations(table, wtpg)
    if problems:
        raise SchedulerError("WTPG/lock-table inconsistency: "
                             + "; ".join(problems))


def find_violations(table: LockTable, wtpg: WTPG) -> List[str]:
    """All violated invariants (empty list when consistent)."""
    problems: List[str] = []

    registered = table.active_transactions
    nodes = wtpg.transactions
    if registered != nodes:
        problems.append(
            f"node set {sorted(nodes)} != registered {sorted(registered)}")

    # 2 + 3 + 4: edges vs declarations.  Only a pair that shares a
    # partition can conflict and only a pair edge can be wrong, so a
    # pair that is neither has nothing to check.  Ascending pair order
    # keeps the report identical to an all-pairs scan
    # (tests/oracles/invariants.py).
    live = registered & nodes
    # Every partition's owners in one pass: asking partition_sharers of
    # each live BAT would rebuild each owner set once per member.
    sharers: Dict[int, Set[int]] = {}
    for tid in live:
        for decl in table.declarations_of(tid):
            sharers.setdefault(decl.partition, set()).add(tid)
    candidates: Set[Tuple[int, int]] = {
        (a, b) for owners in sharers.values()
        for a in owners for b in owners if a < b}
    for edge in wtpg.pairs():
        if edge.a in live and edge.b in live:
            candidates.add((min(edge.a, edge.b), max(edge.a, edge.b)))
    for a, b in sorted(candidates):
        conflicts = table.conflicting_transactions(
            table.declarations_of(a), b)
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
    for tid in sorted(live):
        decls = table.declarations_of(tid)
        total = max((d.due for d in decls), default=0.0)
        if wtpg.source_weight(tid) > total + 1e-9:
            problems.append(
                f"w(T0->T{tid})={wtpg.source_weight(tid):g} exceeds "
                f"declared total {total:g}")

    return problems
