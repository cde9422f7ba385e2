"""Cautious Two Phase Lock (C2PL), after Nishio et al. [10].

A variant of strict 2PL that never aborts: it keeps the transaction
precedence graph (a WTPG without weights) built from the pre-declared
locks, and *delays* any lock request whose grant would make a future
deadlock unavoidable — i.e. would flip an already-fixed serialization
order or close a precedence cycle.  Requests conflicting with a current
holder are blocked as usual.

This is the main baseline the WTPG schedulers beat: it is correct and
deadlock-free but picks serialization orders greedily (first grant wins),
so under bulk access transactions it walks straight into chains of
blocking.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.locks import Declaration
from repro.core.schedulers.base import (Decision, LockResponse,
                                        WTPGScheduler)
from repro.core.transaction import TransactionRuntime


class CautiousTwoPhaseLock(WTPGScheduler):
    """C2PL: grant iff not blocked and no predicted deadlock."""

    name = "C2PL"

    def __init__(self, ddtime: float = 5.0, admission_time: float = 5.0) -> None:
        super().__init__()
        self.ddtime = ddtime
        self.admission_time = admission_time

    def _admission_cost(self) -> float:
        return self.admission_time

    def _evaluate_grant(self, txn: TransactionRuntime,
                        implied: Sequence[Tuple[int, int]],
                        rivals: Sequence[Declaration],
                        now: float) -> LockResponse:
        cost = self.ddtime  # one deadlock-prediction test on the graph
        if self._would_deadlock(implied):
            self.stats.deadlock_predictions += 1
            return LockResponse(Decision.DELAY, cpu_cost=cost,
                                reason="predicted deadlock")
        return LockResponse(Decision.GRANT, cpu_cost=cost)

    def _would_deadlock(self, implied: Sequence[Tuple[int, int]]) -> bool:
        """True if applying ``implied`` contradicts or creates a cycle."""
        fresh: List[Tuple[int, int]] = []
        for predecessor, successor in implied:
            pair = self.wtpg.pair(predecessor, successor)
            if pair is None:
                continue
            if pair.resolved:
                if pair.resolved_to != successor:
                    return True  # would flip a fixed order
                continue
            fresh.append((predecessor, successor))
        if not fresh:
            return False
        # All fresh edges share the requesting transaction as predecessor
        # (implied_resolutions guarantees it), so the copy-free probe
        # applies: a cycle needs a path from some successor back to it.
        source = fresh[0][0]
        return self.wtpg.creates_cycle_from(source,
                                            [succ for _, succ in fresh])
