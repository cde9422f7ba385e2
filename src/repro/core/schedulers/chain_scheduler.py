"""CHAIN — the Chain-WTPG scheduler (CC1, Section 3.2).

Global optimisation: CHAIN computes the full SR-order ``W`` under which
the resolved WTPG has the shortest critical path, and grants a lock
request only if granting keeps the schedule consistent with ``W``.

To make computing ``W`` polynomial, the WTPG is constrained to chain-form
(Definition 2): a new transaction whose conflicts would break chain-form
is aborted at Step 0 and re-submitted later.  Per the control-saving rule
(Section 3.4), ``W`` is recomputed only when a transaction starts or
commits or when ``keeptime`` has elapsed since the last computation;
otherwise the most recent ``W`` is reused.
"""

from __future__ import annotations

import math
from functools import partial
from typing import (Dict, FrozenSet, Hashable, List, Optional, Sequence,
                    Tuple)

from repro.core.builder import PartnerConflicts
from repro.core.chain import chain_components
from repro.core.chain_opt import DOWN, UP, ChainPair, optimise_chain
from repro.core.locks import Declaration
from repro.core.schedulers.base import (Certificate, ControlSaver, Decision,
                                        LockResponse, WTPGScheduler,
                                        chain_form_rejection)
from repro.core.transaction import TransactionRuntime
from repro.errors import SchedulerError

_FIXED_ORDER = "contradicts fixed serialization order"


class ChainScheduler(WTPGScheduler):
    """CC1: grant only if consistent with the optimised full SR-order W."""

    name = "CHAIN"

    def __init__(self, chaintime: float = 20.0, keeptime: float = 5000.0,
                 admission_time: float = 5.0) -> None:
        super().__init__()
        self.chaintime = chaintime
        self.admission_time = admission_time
        self._saver = ControlSaver(keeptime)
        # W: for each unresolved-at-computation pair, the successor tid.
        self._w_order: Dict[FrozenSet[int], int] = {}

    def _admission_cost(self) -> float:
        return self.admission_time

    # -- admission: the chain-form constraint (Step 0 of CC1) ----------------

    def _admission_constraint(self, txn: TransactionRuntime,
                              partners: PartnerConflicts,
                              now: float) -> Optional[str]:
        return chain_form_rejection(self.wtpg, txn.tid, partners)

    def _after_admit(self, txn: TransactionRuntime, now: float) -> None:
        self._saver.invalidate()

    def _after_commit(self, txn: TransactionRuntime, now: float) -> None:
        self._saver.invalidate()

    def _after_abort(self, txn: TransactionRuntime, now: float) -> None:
        # The cached W may order pairs involving the dead transaction;
        # force a recomputation before the next grant decision.
        self._saver.invalidate()

    # -- the optimised order W ------------------------------------------------

    def _refresh_w(self, now: float) -> float:
        """Recompute W if stale; returns the CPU cost incurred."""
        if not self._saver.stale(now):
            return 0.0
        self._w_order = self._compute_w()
        self._saver.mark_computed(now)
        self.stats.optimizations += 1
        return self.chaintime

    def _compute_w(self) -> Dict[FrozenSet[int], int]:
        order: Dict[FrozenSet[int], int] = {}
        for component in chain_components(self.wtpg):
            if len(component) < 2:
                continue
            sources = [self.wtpg.source_weight(tid) for tid in component]
            pairs: List[ChainPair] = []
            for left, right in zip(component, component[1:]):
                edge = self.wtpg.pair(left, right)
                if edge is None:
                    raise SchedulerError(
                        f"chain component lists non-adjacent pair "
                        f"T{left},T{right}")
                fixed: Optional[str] = None
                if edge.resolved:
                    fixed = DOWN if edge.resolved_to == right else UP
                pairs.append(ChainPair(down=edge.weight_to(right),
                                       up=edge.weight_to(left), fixed=fixed))
            _, orientations = optimise_chain(sources, pairs)
            for (left, right), orientation in zip(
                    zip(component, component[1:]), orientations):
                successor = right if orientation == DOWN else left
                order[frozenset((left, right))] = successor
        return order

    def _force_refresh_w(self, now: float) -> float:
        self._saver.invalidate()
        return self._refresh_w(now)

    def current_w(self, now: float = 0.0) -> Dict[FrozenSet[int], int]:
        """The full SR-order in force (recomputing if stale) — for tests."""
        self._refresh_w(now)
        return dict(self._w_order)

    # -- granting: Step 2/3 of CC1 ---------------------------------------------

    def _evaluate_grant(self, txn: TransactionRuntime,
                        implied: Sequence[Tuple[int, int]],
                        rivals: Sequence[Declaration],
                        now: float) -> LockResponse:
        cost = self._refresh_w(now)
        for predecessor, successor in implied:
            pair = self.wtpg.pair(predecessor, successor)
            if pair is None:
                continue
            if pair.resolved:
                if pair.resolved_to != successor:
                    self.stats.deadlock_predictions += 1
                    return LockResponse(Decision.DELAY, cpu_cost=cost,
                                        reason=_FIXED_ORDER)
                continue
            ordained = self._w_order.get(frozenset((predecessor, successor)))
            if ordained is None:
                # W predates this pair (can happen between invalidation and
                # the next refresh): recompute once and retry the lookup.
                cost += self._force_refresh_w(now)
                ordained = self._w_order.get(
                    frozenset((predecessor, successor)))
            if ordained is not None and ordained != successor:
                return LockResponse(
                    Decision.DELAY, cpu_cost=cost,
                    reason=f"inconsistent with W: T{successor} should "
                           f"precede T{predecessor}")
        return LockResponse(Decision.GRANT, cpu_cost=cost)

    def certify(self, txn: TransactionRuntime,
                response: LockResponse) -> Optional[Certificate]:
        """A DELAY that cost nothing was judged against a fresh W.

        It read the partition's holds and, through the implied
        resolutions, the pending declarations there of transactions in
        the WTPG; the pairs with those rivals; and W.  A pending
        declaration leaves only by its grant (a hold changes) or its
        owner's removal from the WTPG, and a rival enters the WTPG only
        by admission, so the holds, the WTPG's structure generation and
        the control saver's epoch cover every input but time, which ages
        W at ``keeptime``.
        """
        if response.decision is not Decision.DELAY:
            return super().certify(txn, response)
        table, wtpg, saver = self.table, self.wtpg, self._saver
        partition = txn.step().partition

        def read() -> Hashable:
            return (table.holds_on(partition), wtpg.structure_generation,
                    saver.epoch)

        # With W fresh, only ``stale``'s keeptime test can age it.
        expired = saver.stale if math.isfinite(saver.keeptime) else None
        return Certificate(read, partial(self._credit_delays,
                                         response.reason == _FIXED_ORDER),
                           expired=expired)

    def _credit_delays(self, predicted: bool, polls: int) -> None:
        self.stats.delays += polls
        if predicted:
            self.stats.deadlock_predictions += polls
