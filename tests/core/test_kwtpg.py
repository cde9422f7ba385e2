"""Scenario tests for K-WTPG (CC2): E-minimality granting, K-conflict."""

import pytest

from repro.core import Step, TransactionRuntime, TransactionSpec
from repro.core.estimator import ContentionBatch
from repro.core.schedulers import Decision, KWTPGScheduler
from tests.oracles import estimate_reference


def rt(tid, steps):
    return TransactionRuntime(TransactionSpec(tid, steps))


class TestKConflictAdmission:
    def test_within_k_admitted(self):
        sched = KWTPGScheduler(k=2)
        for tid in (1, 2, 3):
            assert sched.admit(rt(tid, [Step.write(0, 1)])).admitted

    def test_exceeding_k_rejected(self):
        sched = KWTPGScheduler(k=2)
        for tid in (1, 2, 3):
            sched.admit(rt(tid, [Step.write(0, 1)]))
        response = sched.admit(rt(4, [Step.write(0, 1)]))
        assert not response.admitted
        assert "K-conflict" in response.reason
        assert 4 not in sched.wtpg
        assert not sched.table.is_registered(4)

    def test_k_zero_serializes_conflicts_entirely(self):
        sched = KWTPGScheduler(k=0)
        assert sched.admit(rt(1, [Step.write(0, 1)])).admitted
        assert not sched.admit(rt(2, [Step.write(0, 1)])).admitted
        assert sched.admit(rt(3, [Step.read(5, 1)])).admitted

    def test_reads_do_not_conflict_for_k(self):
        sched = KWTPGScheduler(k=0)
        for tid in (1, 2, 3, 4):
            assert sched.admit(rt(tid, [Step.read(0, 1)])).admitted

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            KWTPGScheduler(k=-1)

    def test_k1_accepts_non_chain_form_wtpg(self):
        """Section 3.3: "Even K-WTPG of K=1 accepts a WTPG which is not
        a chain-form."  A conflict triangle (each declaration conflicting
        with exactly one other) passes K=1 but fails chain-form."""
        from repro.core.chain import is_chain_form
        from repro.core.schedulers import ChainScheduler

        def triangle_runtimes():
            return [rt(1, [Step.write(0, 1), Step.write(2, 1)]),
                    rt(2, [Step.write(0, 1), Step.write(1, 1)]),
                    rt(3, [Step.write(1, 1), Step.write(2, 1)])]

        k1 = KWTPGScheduler(k=1)
        for txn in triangle_runtimes():
            assert k1.admit(txn).admitted
        assert not is_chain_form(k1.wtpg)

        chain = ChainScheduler()
        admitted = [chain.admit(txn).admitted
                    for txn in triangle_runtimes()]
        assert admitted == [True, True, False]  # CHAIN must reject one


class TestEMinimalityGrant:
    def make_asymmetric_trio(self):
        """T9 holds X on P9; T2 declares P0 then P9, so T2 is already
        fixed behind T9 (pair pre-resolved T9 -> T2 at admission).  T1
        only wants P0.  Granting T2's P0 request chains T1 behind the
        T9 -> T2 tail (E = 7); granting T1 first costs only E = 6, so
        K-WTPG grants T1 and delays T2.

        Two plain transactions racing for one partition produce an E-tie
        (the critical path is a *makespan*: either order finishes the
        batch at the same time) — the discriminating signal only appears
        when one competitor drags an existing precedence tail.
        """
        sched = KWTPGScheduler(k=2)
        t9 = rt(9, [Step.write(9, 5)])
        assert sched.admit(t9).admitted
        assert sched.request_lock(t9).granted      # T9 holds P9
        t2 = rt(2, [Step.write(0, 2), Step.write(9, 1)])
        t1 = rt(1, [Step.write(0, 1)])
        assert sched.admit(t2).admitted            # pre-resolves T9 -> T2
        assert sched.admit(t1).admitted
        return sched, t1, t2, t9

    def test_pair_preresolved_behind_holder(self):
        sched, t1, t2, t9 = self.make_asymmetric_trio()
        assert sched.wtpg.orientation(9, 2) == (9, 2)

    def test_free_transaction_granted(self):
        sched, t1, t2, t9 = self.make_asymmetric_trio()
        assert sched.request_lock(t1).granted

    def test_encumbered_transaction_delayed(self):
        sched, t1, t2, t9 = self.make_asymmetric_trio()
        response = sched.request_lock(t2)
        assert response.decision is Decision.DELAY
        assert "not minimal" in response.reason

    def test_encumbered_granted_after_rival_commits(self):
        sched, t1, t2, t9 = self.make_asymmetric_trio()
        assert sched.request_lock(t1).granted
        sched.object_processed(t1)
        t1.advance_step()
        sched.commit(t1)
        assert sched.request_lock(t2).granted

    def test_symmetric_race_is_a_tie_and_grants(self):
        """Documented tie behaviour: with no precedence tails, either
        order yields the same makespan, so E(q) == E(q') and the request
        at hand is granted."""
        sched = KWTPGScheduler(k=2)
        t1 = rt(1, [Step.write(0, 1)])
        t2 = rt(2, [Step.write(0, 4), Step.write(1, 6)])
        sched.admit(t1)
        sched.admit(t2)
        assert sched.request_lock(t1).granted

    def test_no_conflicts_grants_immediately(self):
        sched = KWTPGScheduler(k=2)
        t1 = rt(1, [Step.read(3, 2)])
        sched.admit(t1)
        assert sched.request_lock(t1).granted

    def test_block_takes_priority_over_estimation(self):
        sched = KWTPGScheduler(k=2)
        t1 = rt(1, [Step.write(0, 1)])
        t2 = rt(2, [Step.write(0, 1)])
        sched.admit(t1)
        sched.admit(t2)
        sched.request_lock(t1)
        response = sched.request_lock(t2)
        assert response.decision is Decision.BLOCK


class TestLivelockAvoidance:
    def test_unreachable_rival_declarations_cannot_stall_everyone(self):
        """Regression (found by hypothesis): T1 w(P0)->r(P0), T2 w(P0),
        T3 r(P0:3).  T1's *second-step* r has the lowest E, but T1 cannot
        issue it before its w — comparing against it livelocked all
        three.  E-minimality must only consider each rival's earliest
        pending conflicting declaration."""
        sched = KWTPGScheduler(k=2)
        t1 = rt(1, [Step.write(0, 1), Step.read(0, 1)])
        t2 = rt(2, [Step.write(0, 1)])
        t3 = rt(3, [Step.read(0, 3)])
        for t in (t1, t2, t3):
            assert sched.admit(t).admitted
        decisions = [sched.request_lock(t).decision for t in (t1, t2, t3)]
        assert Decision.GRANT in decisions

    def test_property_driver_runs_the_trio_to_completion(self):
        from tests.core.driver import run_logical
        from repro.core import TransactionSpec

        specs = [TransactionSpec(1, [Step.write(0, 1), Step.read(0, 1)]),
                 TransactionSpec(2, [Step.write(0, 1)]),
                 TransactionSpec(3, [Step.read(0, 3)])]
        result = run_logical(KWTPGScheduler(k=2), specs)
        assert sorted(result.commit_order) == [1, 2, 3]

    def test_cross_partition_deferral_cycle_is_broken(self):
        """Regression (found by hypothesis): T3 defers to T8's P0
        declaration while T8 (and T7) defer to T3's P1 declaration —
        a standoff across two granules that no weight adjustment can
        break.  The deferral-cycle breaker must grant one of them."""
        from tests.core.driver import run_logical
        from repro.core import TransactionSpec

        specs = [
            TransactionSpec(1, [Step.read(0, 1)]),
            TransactionSpec(2, [Step.read(0, 1)] * 4),
            TransactionSpec(3, [Step.read(0, 1), Step.write(0, 1),
                                Step.read(1, 1)]),
            TransactionSpec(4, [Step.read(0, 1)]),
            TransactionSpec(5, [Step.read(0, 1)]),
            TransactionSpec(6, [Step.read(0, 1)]),
            TransactionSpec(7, [Step.write(1, 1), Step.read(0, 1),
                                Step.read(0, 1), Step.read(0, 1)]),
            TransactionSpec(8, [Step.write(1, 1), Step.read(0, 2)]),
        ]
        result = run_logical(KWTPGScheduler(k=2), specs, max_passes=3000)
        assert sorted(result.commit_order) == list(range(1, 9))


class TestKCountModes:
    def test_transaction_counting_is_looser_on_upgrades(self):
        """Pattern1-style rivals (r then w on one partition) contribute
        two conflicting declarations but one transaction."""

        def admit_three(mode):
            sched = KWTPGScheduler(k=2, k_count_mode=mode)
            outcomes = []
            for tid in (1, 2, 3):
                outcomes.append(sched.admit(rt(
                    tid, [Step.read(0, 1), Step.write(0, 1)])).admitted)
            return outcomes

        assert admit_three("transactions") == [True, True, True]
        assert admit_three("declarations") == [True, True, False]

    def test_unknown_mode_rejected(self):
        from repro.core import LockTable, TransactionSpec
        from repro.errors import LockTableError

        table = LockTable()
        table.register(TransactionSpec(1, [Step.write(0, 1)]))
        decl = table.declarations_of(1)[0]
        with pytest.raises(LockTableError):
            table.conflict_count(decl, count="granules")


class TestDeadlockPrediction:
    def test_contradicting_grant_is_delayed(self):
        A, B = 0, 1
        sched = KWTPGScheduler(k=2)
        t1 = rt(1, [Step.write(A, 1), Step.write(B, 1)])
        t2 = rt(2, [Step.write(B, 1), Step.write(A, 1)])
        sched.admit(t1)
        sched.admit(t2)
        assert sched.request_lock(t1).granted      # fixes T1 -> T2
        response = sched.request_lock(t2)          # B grant implies T2 -> T1
        assert response.decision is Decision.DELAY
        assert sched.stats.deadlock_predictions >= 1


class TestControlSaving:
    def delayed_scenario(self, keeptime):
        """The asymmetric trio: T2's P0 request is delayed (see above),
        so re-issuing it exercises the E-cache."""
        sched = KWTPGScheduler(k=2, keeptime=keeptime)
        t9 = rt(9, [Step.write(9, 5)])
        sched.admit(t9, now=0)
        sched.request_lock(t9, now=0)
        t2 = rt(2, [Step.write(0, 2), Step.write(9, 1)])
        t1 = rt(1, [Step.write(0, 1)])
        sched.admit(t2, now=0)
        sched.admit(t1, now=0)
        return sched, t1, t2

    def test_e_values_cached_within_keeptime(self):
        sched, t1, t2 = self.delayed_scenario(keeptime=5000)
        first = sched.request_lock(t2, now=1)
        assert first.decision is Decision.DELAY
        calls_after_first = sched.stats.estimator_calls
        assert first.cpu_cost > 0
        # Same request again, nothing changed: cached, zero cost.
        second = sched.request_lock(t2, now=2)
        assert second.decision is Decision.DELAY
        assert second.cpu_cost == 0.0
        assert sched.stats.estimator_calls == calls_after_first

    def test_new_precedence_edge_invalidates_cache(self):
        sched = KWTPGScheduler(k=2, keeptime=50_000)
        t1 = rt(1, [Step.write(0, 5), Step.write(1, 5)])
        t2 = rt(2, [Step.write(0, 5)])
        t3 = rt(3, [Step.write(1, 2)])
        for t in (t1, t2, t3):
            sched.admit(t, now=0)
        sched.request_lock(t2, now=1)
        calls = sched.stats.estimator_calls
        # A grant elsewhere creates a precedence edge (T3 -> T1 on P1).
        assert sched.request_lock(t3, now=2).granted
        sched.request_lock(t2, now=3)
        assert sched.stats.estimator_calls > calls

    def test_keeptime_expiry_recomputes(self):
        sched, t1, t2 = self.delayed_scenario(keeptime=100)
        assert sched.request_lock(t2, now=1).decision is Decision.DELAY
        calls = sched.stats.estimator_calls
        response = sched.request_lock(t2, now=500)
        assert response.decision is Decision.DELAY
        assert sched.stats.estimator_calls > calls
        assert response.cpu_cost > 0


class TestUncontestedGrant:
    """A request whose C(q) is empty is decided without an E(q) batch:
    GRANT unless the live graph already has a precedence cycle (then
    E(q) would be infinite), with the cost accounting of the full rule."""

    def cyclic_scenario(self, keeptime):
        """T1-T3 form a ring of pairwise conflicts resolved into a cycle
        (planted: no schedule reaches one); T4 shares no partition."""
        sched = KWTPGScheduler(k=2, keeptime=keeptime)
        ring = [rt(1, [Step.write(0, 1), Step.write(1, 1)]),
                rt(2, [Step.write(1, 1), Step.write(2, 1)]),
                rt(3, [Step.write(2, 1), Step.write(0, 1)])]
        loner = rt(4, [Step.read(9, 1)])
        for txn in ring + [loner]:
            assert sched.admit(txn, now=0).admitted
        for predecessor, successor in ((1, 2), (2, 3), (3, 1)):
            sched.wtpg.resolve(predecessor, successor)
        assert sched.wtpg.has_precedence_cycle()
        return sched, loner

    def test_no_batch_is_built(self, monkeypatch):
        from repro.core.schedulers import kwtpg_scheduler

        def refuse(wtpg):
            raise AssertionError("uncontested request built a batch")

        monkeypatch.setattr(kwtpg_scheduler, "ContentionBatch", refuse)
        sched = KWTPGScheduler(k=2)
        loner = rt(1, [Step.read(3, 2)])
        sched.admit(loner, now=0)
        response = sched.request_lock(loner, now=1)
        assert response.granted
        assert response.cpu_cost == sched.kwtpgtime
        assert sched.stats.estimator_calls == 1

    def test_grant_caches_nothing(self):
        sched = KWTPGScheduler(k=2, keeptime=5000)
        first, second = rt(1, [Step.read(3, 2)]), rt(2, [Step.read(4, 2)])
        for txn in (first, second):
            sched.admit(txn, now=0)
        assert sched.request_lock(first, now=1).granted
        assert sched._e_cache == {}
        # Same computation round: the next uncontested decision is not
        # a cache hit either, and pays like the full rule would.
        response = sched.request_lock(second, now=2)
        assert response.granted and response.cpu_cost == sched.kwtpgtime
        assert sched.stats.estimator_calls == 2

    def test_cyclic_graph_delays_and_retry_hits_cache(self):
        sched, loner = self.cyclic_scenario(keeptime=5000)
        first = sched.request_lock(loner, now=1)
        assert first.decision is Decision.DELAY
        assert "predicted deadlock" in first.reason
        assert first.cpu_cost == sched.kwtpgtime
        assert sched.stats.deadlock_predictions == 1
        assert sched.stats.estimator_calls == 1
        retry = sched.request_lock(loner, now=2)
        assert retry.decision is Decision.DELAY
        assert retry.cpu_cost == 0.0
        assert sched.stats.deadlock_predictions == 2
        assert sched.stats.estimator_calls == 1

    def test_keeptime_expiry_recharges(self):
        sched, loner = self.cyclic_scenario(keeptime=100)
        assert sched.request_lock(loner, now=1).decision is Decision.DELAY
        response = sched.request_lock(loner, now=500)
        assert response.decision is Decision.DELAY
        assert response.cpu_cost == sched.kwtpgtime
        assert sched.stats.estimator_calls == 2

    def test_same_verdict_as_full_rule(self):
        """The shortcut's verdict and cost equal E(q) evaluated by the
        full rule with nothing implied, on a cyclic and an acyclic graph."""
        acyclic, loner = KWTPGScheduler(k=2), rt(4, [Step.read(9, 1)])
        acyclic.admit(loner, now=0)
        for sched, txn in (self.cyclic_scenario(keeptime=5000),
                           (acyclic, loner)):
            full = sched._grant_if_minimal(txn, (), (), 1)
            sched._invalidate()  # the full rule cached its E(q)
            fast = sched.request_lock(txn, now=1)
            assert fast.decision is full.decision
            assert fast.cpu_cost == full.cpu_cost
            assert fast.reason == full.reason


class TestDominatedRivals:
    """A contested request whose E(q) is at the batch's critical-path
    floor is granted without evaluating its rivals, when each rival's E
    would be a fresh miss and the grant resolves a new pair.  Otherwise
    the full rule runs.  Either way the verdict, cost, stats and the
    state left behind equal the full rule's."""

    def scenario(self, rivals=2, heavy=True, kwtpgtime=10.0):
        """T1 and ``rivals`` others each write P0 once.  A heavy
        transaction T99 on P7 sets the critical path, so E(T1) is at the
        floor; without it the order on P0 lengthens the critical path."""
        sched = KWTPGScheduler(k=rivals, kwtpgtime=kwtpgtime,
                               keeptime=5000)
        txns = [rt(tid, [Step.write(0, 1)]) for tid in range(1, rivals + 2)]
        if heavy:
            txns.append(rt(99, [Step.read(7, 100)]))
        for txn in txns:
            assert sched.admit(txn, now=0).admitted
        evaluated = []
        estimate_declaration = sched._estimate_declaration

        def counted(decl, now, batch):
            evaluated.append(decl.tid)
            return estimate_declaration(decl, now, batch)

        sched._estimate_declaration = counted
        return sched, txns[0], evaluated

    def full_rule(self, **kwargs):
        sched, txn, evaluated = self.scenario(**kwargs)
        sched._dominates_rivals = lambda *args: False
        return sched, txn, evaluated

    def assert_same_as_full_rule(self, fast, full):
        (sched, response), (full_sched, full_response) = fast, full
        assert response.decision is full_response.decision
        assert response.cpu_cost == full_response.cpu_cost
        assert response.reason == full_response.reason
        assert sched.stats.as_dict() == full_sched.stats.as_dict()
        assert sched._e_cache == full_sched._e_cache
        assert sched._deferred_to == full_sched._deferred_to

    def decide(self, prepare=lambda sched: None, **kwargs):
        """The shortcut's and the full rule's decision on T1's request,
        after ``prepare`` ran on each scheduler; and the rivals the
        shortcut's scheduler evaluated."""
        outcomes = []
        for build in (self.scenario, self.full_rule):
            sched, txn, evaluated = build(**kwargs)
            prepare(sched)
            outcomes.append((sched, sched.request_lock(txn, now=1),
                             evaluated))
        (sched, response, evaluated), (full, full_response, _) = outcomes
        self.assert_same_as_full_rule((sched, response),
                                      (full, full_response))
        return response, evaluated

    def test_at_the_floor_no_rival_is_evaluated(self):
        response, evaluated = self.decide()
        assert response.granted
        assert evaluated == []
        # E(q) plus one fresh E per rival, as the full rule charges.
        assert response.cpu_cost == 30.0

    def test_cached_rival_key_takes_the_full_rule(self):
        from repro.core import builder

        def cache_t2(sched):
            decl = sched.table.declarations_of(2)[0]
            implied = builder.implied_resolutions(
                sched.table, sched.wtpg, 2, decl.partition, decl.mode)
            sched._estimate(2, decl.step_index, implied, 1,
                            ContentionBatch(sched.wtpg))

        response, evaluated = self.decide(prepare=cache_t2)
        assert response.granted
        assert evaluated == [2, 3]
        assert response.cpu_cost == 20.0  # T2's E was a cache hit

    def test_grant_resolving_no_new_pair_takes_the_full_rule(self):
        def preresolve(sched):
            sched.wtpg.resolve(1, 2)
            sched.wtpg.resolve(1, 3)

        response, evaluated = self.decide(prepare=preresolve)
        assert response.granted
        assert evaluated == [2, 3]
        # Nothing invalidates the cache: the rivals' E values stay
        # readable, so skipping them would change a later decision.
        sched, txn, _ = self.scenario()
        preresolve(sched)
        sched.request_lock(txn, now=1)
        assert {key[0] for key in sched._e_cache} == {1, 2, 3}

    def test_e_above_the_floor_takes_the_full_rule(self):
        sched, txn, _ = self.scenario(heavy=False)
        batch = ContentionBatch(sched.wtpg)
        assert batch.estimate(1, ((1, 2), (1, 3))) > batch.floor
        response, evaluated = self.decide(heavy=False)
        assert response.granted
        assert evaluated == [2, 3]

    @pytest.mark.parametrize("rivals", [2, 5])
    def test_cost_is_bit_identical_to_the_full_rule(self, rivals):
        response, evaluated = self.decide(rivals=rivals, kwtpgtime=0.1)
        assert evaluated == []
        if rivals == 5:
            # Summed once per rival, not multiplied: 0.1 * 6 rounds
            # differently from six additions of 0.1.
            assert response.cpu_cost != 0.1 * (rivals + 1)

    def test_rival_outside_the_wtpg_raises_like_the_full_rule(self):
        from repro.errors import WTPGError

        sched, txn, evaluated = self.scenario()
        sched.wtpg.remove_transaction(3)
        with pytest.raises(WTPGError, match="T3 is not in the WTPG"):
            sched.request_lock(txn, now=1)
        assert evaluated == [2, 3]


class TestWeightsDriveDecisions:
    def test_progress_flips_the_preference(self):
        """As the heavy transaction nears completion its dues shrink;
        eventually it becomes the minimal-E competitor."""
        sched = KWTPGScheduler(k=2, keeptime=0)  # always recompute
        t1 = rt(1, [Step.write(1, 8), Step.write(0, 1)])
        t2 = rt(2, [Step.write(0, 2), Step.write(2, 2)])
        sched.admit(t1)
        sched.admit(t2)
        assert sched.request_lock(t1).granted  # P1: no conflict
        # T1 processes its 8 objects on P1: its remaining work drops to 2.
        for _ in range(8):
            sched.object_processed(t1)
        t1.advance_step()
        # Now both compete for P0: T1's due there is 1, T2's is 4.
        r1 = sched.request_lock(t1)
        r2 = sched.request_lock(t2)
        assert r1.granted
        assert r2.decision in (Decision.DELAY, Decision.BLOCK)


def estimate_t2(sched, implied, now):
    """T2's step-0 E value through the scheduler's cache, evaluated the
    way one grant decision does it (one batch over the live WTPG)."""
    return sched._estimate(2, 0, implied, now, ContentionBatch(sched.wtpg))


class TestECacheKeyedByImpliedSet:
    """Regression: the E-cache used to be keyed by (tid, step_index) only.

    Within one keeptime window the implied-resolution set of the *same*
    request can shrink without any cache invalidation firing: a rival's
    pending declaration is consumed by a re-access of an already-held lock
    (``_consume_if_pending``), which creates no precedence edge and no
    commit/admit event.  The old key then returned the E value of the old,
    larger implied set — a stale estimate that can mis-rank candidates.
    The key now includes the implied tuple itself.
    """

    def test_same_request_different_implied_sets_not_conflated(self):
        from repro.core import builder
        from repro.core.transaction import LockMode

        sched = KWTPGScheduler(k=3, keeptime=50_000)
        t1 = rt(1, [Step.read(0, 4), Step.read(0, 1)])
        t2 = rt(2, [Step.write(0, 2)])
        t4 = rt(4, [Step.read(0, 1)])
        for t in (t1, t2, t4):
            assert sched.admit(t, now=0).admitted

        full = builder.implied_resolutions(
            sched.table, sched.wtpg, 2, 0, LockMode.EXCLUSIVE)
        assert full == ((2, 1), (2, 4))
        e_full, cost_full = estimate_t2(sched, full, now=1)
        assert cost_full > 0
        assert e_full == estimate_reference(sched.wtpg, 2, full)

        # T1's second r-P0 declaration is consumed by its re-access while
        # its first grant still holds the lock: no new precedence edge, no
        # commit, no admission — the ControlSaver stays warm.  In that
        # state the same (tid=2, step=0) request implies only (2, 4).
        reduced = ((2, 4),)
        truth = estimate_reference(sched.wtpg, 2, reduced)
        e_reduced, _ = estimate_t2(sched, reduced, now=2)
        assert e_reduced == truth
        assert e_full != truth  # the stale value the old key would return

    def test_consume_if_pending_shrinks_implied_within_warm_window(self):
        """End-to-end: the consumption path changes the implied set while
        the ControlSaver cache stays warm — the exact state in which the
        old (tid, step_index) key served a stale E value."""
        from repro.core import builder
        from repro.core.transaction import LockMode

        sched = KWTPGScheduler(k=3, keeptime=50_000)
        t1 = rt(1, [Step.read(0, 4), Step.read(0, 1)])
        t2 = rt(2, [Step.write(0, 2)])
        t4 = rt(4, [Step.read(0, 1)])
        for t in (t1, t2, t4):
            assert sched.admit(t, now=0).admitted
        # T1 acquires P0 shared (this grant invalidates — fine, the window
        # of interest starts after it)...
        assert sched.request_lock(t1, now=1).granted
        mid = builder.implied_resolutions(
            sched.table, sched.wtpg, 2, 0, LockMode.EXCLUSIVE)
        assert mid == ((2, 1), (2, 4))  # T1's step-1 decl is still pending
        # ...and T2's request is estimated, warming the cache.
        e_mid, _ = estimate_t2(sched, mid, now=2)
        assert not sched._saver.stale(3)
        # T1 finishes step 0 and re-accesses P0 at step 1: the re-access
        # consumes its second declaration with NO invalidation event.
        for _ in range(4):
            sched.object_processed(t1)
        t1.advance_step()
        assert sched.request_lock(t1, now=3).granted
        assert not sched._saver.stale(4)  # cache still warm
        after = builder.implied_resolutions(
            sched.table, sched.wtpg, 2, 0, LockMode.EXCLUSIVE)
        assert after == ((2, 4),)  # the implied set shrank silently
        truth = estimate_reference(sched.wtpg, 2, after)
        e_after, _ = estimate_t2(sched, after, now=4)
        assert e_after == truth
        assert e_mid != e_after  # the old key would have served e_mid
