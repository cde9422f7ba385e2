"""K-WTPG — the K-conflict WTPG scheduler (CC2, Section 3.3).

Local optimisation: a lock request ``q`` is granted only when its
contention estimate ``E(q)`` (see :mod:`repro.core.estimator`) is the
smallest among the conflicting lock-declarations ``C(q)``.  Requests that
would deadlock (``E(q) = inf``) are delayed.

The K-conflict constraint bounds ``|C(q)|``: each lock-declaration may
conflict with at most K others; a new transaction violating this is
aborted at start and re-submitted.  The paper evaluates K = 2 ("K2").
Unlike CHAIN, any *shape* of WTPG is accepted.

``k_count_mode`` selects what "K others" counts: ``"transactions"``
(default — distinct conflicting transactions; reproduces the paper's
measured Experiment 4 hybrid ordering) or ``"declarations"`` (the
paper's literal wording; stricter on read-then-upgrade patterns, which
declare two conflicting locks per rival).  See EXPERIMENTS.md for the
calibration evidence.

Control saving (Section 3.4): ``E`` values are cached and reused until
``keeptime`` elapses, a transaction starts or commits, or a new precedence
edge is generated.  Cache entries are keyed by the candidate's full
identity — ``(tid, step_index, implied resolutions)`` — because the
implied-resolution set of the *same* declaration can change within one
keeptime window without any invalidating event (e.g. a rival's pending
declaration is consumed by an already-held re-access, which creates no
precedence edge).

A grant decision with rivals builds one
:class:`~repro.core.estimator.ContentionBatch` — a copy-free delta view
over the live WTPG — and evaluates the request through it.  The rivals
are evaluated through it too, unless ``E(q)`` is at the batch's
critical-path floor, below which no rival's fresh ``E`` can lie
(:meth:`KWTPGScheduler._dominates_rivals`).  A request whose ``C(q)`` is
empty has nothing to be compared with: it is granted unless the live
graph already has a precedence cycle, which is exactly when its
``E(q)`` would be infinite, and no batch is built
(:meth:`KWTPGScheduler._grant_uncontested`).  Both shortcuts charge
what the full rule charges.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core import builder
from repro.core.estimator import INFINITE_CONTENTION, ContentionBatch
from repro.core.locks import Declaration
from repro.core.schedulers.base import (ControlSaver, Decision, LockResponse,
                                        WTPGScheduler, k_conflict_rejection)
from repro.core.transaction import TransactionRuntime, TransactionSpec

_EKey = Tuple[int, int, Tuple[Tuple[int, int], ...]]


class KWTPGScheduler(WTPGScheduler):
    """CC2: grant q only when E(q) is minimal in C(q); K-conflict admitted."""

    name = "K-WTPG"

    def __init__(self, k: int = 2, kwtpgtime: float = 10.0,
                 keeptime: float = 5000.0,
                 admission_time: float = 5.0,
                 k_count_mode: str = "transactions") -> None:
        if k < 0:
            raise ValueError(f"K must be non-negative, got {k}")
        super().__init__()
        self.k = k
        self.kwtpgtime = kwtpgtime
        self.admission_time = admission_time
        self.k_count_mode = k_count_mode
        self._saver = ControlSaver(keeptime)
        # Cache of E values keyed by (tid, step_index, implied resolutions),
        # and the (tid, step_index) of its keys; both are cleared together.
        self._e_cache: Dict[_EKey, float] = {}
        self._e_steps: Set[Tuple[int, int]] = set()
        # Deferral graph: tid -> rivals its last delay deferred to.
        self._deferred_to: Dict[int, Set[int]] = {}

    def _admission_cost(self) -> float:
        return self.admission_time

    # -- admission: the K-conflict constraint --------------------------------

    def _table_constraint(self, spec: TransactionSpec) -> Optional[str]:
        return k_conflict_rejection(self.table, spec, self.k,
                                    self.k_count_mode)

    def _after_admit(self, txn: TransactionRuntime, now: float) -> None:
        self._invalidate()

    def _after_commit(self, txn: TransactionRuntime, now: float) -> None:
        self._invalidate()

    def _on_new_precedence_edge(self, now: float) -> None:
        self._invalidate()  # condition 3) of the control-saving rule

    def _after_abort(self, txn: TransactionRuntime, now: float) -> None:
        # The E-cache and the deferral graph may both reference the
        # victim; stale entries would key decisions on a dead node.
        self._invalidate()

    def _invalidate(self) -> None:
        self._saver.invalidate()
        self._e_cache.clear()
        self._e_steps.clear()
        self._deferred_to.clear()

    # -- the E-minimality grant rule -------------------------------------------

    def _evaluate_grant(self, txn: TransactionRuntime,
                        implied: Sequence[Tuple[int, int]],
                        rivals: Sequence[Declaration],
                        now: float) -> LockResponse:
        if not rivals:
            return self._grant_uncontested(txn, now)
        return self._grant_if_minimal(txn, implied, rivals, now)

    def _grant_if_minimal(self, txn: TransactionRuntime,
                          implied: Sequence[Tuple[int, int]],
                          rivals: Sequence[Declaration],
                          now: float) -> LockResponse:
        """E(q) against the E of each rival's earliest declaration."""
        # One overlay base shared by the request and every rival candidate
        # this decision evaluates: the base-graph acyclicity verdict and
        # the live graph's memoized closures are established once.
        batch = ContentionBatch(self.wtpg)

        e_q, cost = self._estimate(txn.tid, txn.current_step, implied, now,
                                   batch)
        if e_q == INFINITE_CONTENTION:
            return self._predicted_deadlock(cost)

        earliest = self._earliest_per_rival(rivals)
        if self._dominates_rivals(e_q, implied, earliest, now, batch):
            for _ in earliest:
                # What the full rule charges for each rival's fresh E.
                cost += self.kwtpgtime
                self.stats.estimator_calls += 1
            self._deferred_to.pop(txn.tid, None)
            return LockResponse(Decision.GRANT, cpu_cost=cost)

        for decl in earliest:
            e_rival, extra = self._estimate_declaration(decl, now, batch)
            cost += extra
            if e_rival < e_q:
                if self._would_close_deferral_cycle(txn.tid, decl.tid):
                    break  # granting beats a certain standoff
                self._deferred_to.setdefault(txn.tid, set()).add(decl.tid)
                return LockResponse(
                    Decision.DELAY, cpu_cost=cost,
                    reason=f"E(q)={e_q:g} not minimal: T{decl.tid}'s "
                           f"declaration has E={e_rival:g}")
        self._deferred_to.pop(txn.tid, None)
        return LockResponse(Decision.GRANT, cpu_cost=cost)

    def _dominates_rivals(self, e_q: float,
                          implied: Sequence[Tuple[int, int]],
                          earliest: Sequence[Declaration], now: float,
                          batch: ContentionBatch) -> bool:
        """True if the full rule would grant without a rival mattering.

        No E the batch computes is below its :attr:`~ContentionBatch.floor`,
        so when ``E(q)`` is at most the floor and every rival's E would be
        computed fresh (no E is cached for its step), no rival can have a
        smaller E and the verdict is GRANT.  The full rule would also
        cache each rival's E; skipping those writes is unobservable when
        the grant resolves a new pair, because :meth:`_apply_grant` then
        invalidates the cache.  A rival outside the WTPG falls through
        to the full rule, which raises.
        """
        if e_q > batch.floor:
            return False
        wtpg = self.wtpg
        for predecessor, successor in implied:
            pair = wtpg.pair(predecessor, successor)
            if pair is not None and not pair.resolved:
                break
        else:
            return False
        for decl in earliest:
            if decl.tid not in wtpg:
                return False
        if self._saver.stale(now):
            return True  # every rival's lookup would miss
        # Conservative: an entry counts whatever implied set it is keyed on.
        cached_steps = self._e_steps
        for decl in earliest:
            if (decl.tid, decl.step_index) in cached_steps:
                return False
        return True

    def _grant_uncontested(self, txn: TransactionRuntime,
                           now: float) -> LockResponse:
        """Decide a request with an empty ``C(q)`` without evaluating E(q).

        With no rival the rule reduces to "grant unless E(q) is
        infinite", and with no rival nothing is implied.  E(q) of an
        empty implied set is infinite exactly when the live graph already
        has a precedence cycle: in an acyclic graph before(T) and after(T)
        are disjoint, and no before -> after crossing can close a cycle
        because nothing in after(T) reaches before(T).

        The cost is what :meth:`_estimate` charges for the same key.  Only
        a DELAY caches its infinite E, so the retry is free; a GRANT
        consumes the declaration, so no lookup can reach its key before an
        abort clears the cache, and it stores nothing.
        """
        key = (txn.tid, txn.current_step, ())
        cached = self._lookup(key, now)
        if cached is not None:
            cost = 0.0
            deadlocked = cached == INFINITE_CONTENTION
        else:
            cost = self.kwtpgtime
            self.stats.estimator_calls += 1
            deadlocked = self.wtpg.has_precedence_cycle()
            if deadlocked:
                self._e_cache[key] = INFINITE_CONTENTION
                self._e_steps.add((txn.tid, txn.current_step))
        if deadlocked:
            return self._predicted_deadlock(cost)
        self._deferred_to.pop(txn.tid, None)
        return LockResponse(Decision.GRANT, cpu_cost=cost)

    def _predicted_deadlock(self, cost: float) -> LockResponse:
        self.stats.deadlock_predictions += 1
        return LockResponse(Decision.DELAY, cpu_cost=cost,
                            reason="E(q) infinite: predicted deadlock")

    @staticmethod
    def _earliest_per_rival(
            declarations: Iterable[Declaration]) -> List[Declaration]:
        """Each rival's earliest pending conflicting declaration on the
        requested granule.

        A transaction issues its steps in order, so on one granule the
        only request a rival can make next is its earliest pending
        declaration there; later ones would double-count the same rival
        with (misleadingly low) E values — the first livelock our
        property suite found.  Cross-granule livelocks (each transaction
        deferred to a declaration the other can only issue after the
        very step being delayed) are handled separately by the
        deferral-cycle breaker in :meth:`_evaluate_grant`.
        """
        earliest: Dict[int, Declaration] = {}
        for decl in declarations:
            kept = earliest.get(decl.tid)
            if kept is None or decl.step_index < kept.step_index:
                earliest[decl.tid] = decl
        return [earliest[tid] for tid in sorted(earliest)]

    def _would_close_deferral_cycle(self, tid: int, rival: int) -> bool:
        """True if deferring ``tid`` to ``rival`` closes a wait cycle.

        The E-minimality rule can deadlock *itself*: T defers to a
        declaration of Tj while Tj (transitively) defers to a
        declaration of T — none of them is lock-blocked, yet none can be
        granted, and since nothing changes, no weight adjustment ever
        breaks the standoff.  The paper does not consider this case; we
        grant the request that would close the cycle (its delay could
        help nobody).  Deferral edges are cleared whenever the schedule
        changes (start/commit/new precedence edge), so stale edges can
        at worst cause one early grant.
        """
        seen: Set[int] = set()
        stack = [rival]
        while stack:
            node = stack.pop()
            if node == tid:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._deferred_to.get(node, ()))
        return False

    def _lookup(self, key: _EKey, now: float) -> Optional[float]:
        """The cached E value under ``key``, or None.

        A stale cache starts a fresh computation round: every stale value
        is dropped and the round is stamped ``now``.
        """
        if not self._saver.stale(now):
            return self._e_cache.get(key)
        self._e_cache.clear()
        self._e_steps.clear()
        self._saver.mark_computed(now)
        return None

    def _estimate(self, tid: int, step_index: int,
                  implied: Sequence[Tuple[int, int]], now: float,
                  batch: ContentionBatch) -> Tuple[float, float]:
        """E value for a (tid, step) with given implications, plus CPU cost."""
        key = (tid, step_index, tuple(implied))
        value = self._lookup(key, now)
        if value is not None:
            return value, 0.0
        value = batch.estimate(tid, implied)
        self._e_cache[key] = value
        self._e_steps.add((tid, step_index))
        self.stats.estimator_calls += 1
        return value, self.kwtpgtime

    def _estimate_declaration(self, decl: Declaration, now: float,
                              batch: ContentionBatch,
                              ) -> Tuple[float, float]:
        """E for a rival pending declaration, granted hypothetically now."""
        implied = builder.implied_resolutions(
            self.table, self.wtpg, decl.tid, decl.partition, decl.mode)
        return self._estimate(decl.tid, decl.step_index, implied, now, batch)
