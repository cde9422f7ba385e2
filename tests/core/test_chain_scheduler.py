"""Scenario tests for CHAIN (CC1), anchored on Example 3.3 of the paper."""

import pytest

from repro.core import Step, TransactionRuntime, TransactionSpec
from repro.core.schedulers import ChainScheduler, Decision

A, B, C, D = 0, 1, 2, 3


def figure1_runtimes():
    t1 = TransactionRuntime(TransactionSpec(
        1, [Step.read(A, 1), Step.read(B, 3), Step.write(A, 1)]))
    t2 = TransactionRuntime(TransactionSpec(
        2, [Step.read(C, 1), Step.write(A, 1)]))
    t3 = TransactionRuntime(TransactionSpec(
        3, [Step.write(C, 1), Step.read(D, 3)]))
    return t1, t2, t3


def admitted_chain():
    sched = ChainScheduler()
    t1, t2, t3 = figure1_runtimes()
    for t in (t1, t2, t3):
        assert sched.admit(t).admitted
    return sched, t1, t2, t3


class TestWComputation:
    def test_w_is_the_optimal_order_of_figure2(self):
        sched, *_ = admitted_chain()
        w = sched.current_w()
        # W = {T1 -> T2, T3 -> T2}: the successor of each pair is T2.
        assert w[frozenset((1, 2))] == 2
        assert w[frozenset((2, 3))] == 2

    def test_w_is_cached_within_keeptime(self):
        sched, *_ = admitted_chain()
        sched.current_w(now=0)
        before = sched.stats.optimizations
        sched.current_w(now=100)
        assert sched.stats.optimizations == before

    def test_w_recomputed_after_keeptime(self):
        sched, *_ = admitted_chain()
        sched.current_w(now=0)
        before = sched.stats.optimizations
        sched.current_w(now=10_000)
        assert sched.stats.optimizations == before + 1

    def test_w_recomputed_after_commit(self):
        sched, t1, t2, t3 = admitted_chain()
        sched.current_w(now=0)
        before = sched.stats.optimizations
        # Run T1 to completion (it is first in W, so everything grants).
        for _ in range(3):
            assert sched.request_lock(t1, now=1).granted
            t1.advance_step()
        sched.commit(t1, now=2)
        sched.current_w(now=3)
        assert sched.stats.optimizations == before + 1


class TestExample33:
    def test_r2c_is_delayed_because_inconsistent_with_w(self):
        """Example 3.3: granting r2(C:1) would resolve (T2,T3) into
        T2 -> T3, inconsistent with W = {..., T3 -> T2}: CHAIN delays."""
        sched, t1, t2, t3 = admitted_chain()
        response = sched.request_lock(t2, now=1)
        assert response.decision is Decision.DELAY
        assert "inconsistent with W" in response.reason

    def test_t1_and_t3_proceed(self):
        sched, t1, t2, t3 = admitted_chain()
        assert sched.request_lock(t1, now=1).granted  # r1(A): T1 before T2 OK
        assert sched.request_lock(t3, now=1).granted  # w3(C): T3 before T2 OK

    def test_t2_proceeds_after_predecessors_commit(self):
        sched, t1, t2, t3 = admitted_chain()
        # Grant T3's w3(C) first: this *resolves* (T2,T3) to T3 -> T2, so
        # later W recomputations must keep it fixed.
        assert sched.request_lock(t3, now=1).granted
        t3.advance_step()
        for txn in (t1, t3):
            while not txn.finished_all_steps:
                assert sched.request_lock(txn, now=1).granted
                txn.advance_step()
            sched.commit(txn, now=2)
        assert sched.request_lock(t2, now=3).granted
        t2.advance_step()
        assert sched.request_lock(t2, now=3).granted

    def test_tie_in_w_can_reorder_unresolved_pairs(self):
        """After T1 commits, the 2-node chain {T2,T3} has two equal-cost
        orders (both critical path 6); W may legitimately flip to
        {T2 -> T3} as the pair was never resolved.  Whichever side W picks
        can proceed — there is never a stall."""
        sched, t1, t2, t3 = admitted_chain()
        while not t1.finished_all_steps:
            assert sched.request_lock(t1, now=1).granted
            t1.advance_step()
        sched.commit(t1, now=2)
        r2 = sched.request_lock(t2, now=3)
        r3 = sched.request_lock(t3, now=3)
        assert r2.granted or r3.granted


class TestChainAdmission:
    def test_conflict_with_chain_middle_rejected(self):
        sched, t1, t2, t3 = admitted_chain()
        # T4 writes C: conflicts with T2 (middle? T2 conflicts with T1 and
        # T3 already, so degree would hit 3) -> reject.
        t4 = TransactionRuntime(TransactionSpec(4, [Step.write(C, 1)]))
        response = sched.admit(t4)
        assert not response.admitted
        assert "chain-form" in response.reason
        assert not sched.table.is_registered(4)
        assert 4 not in sched.wtpg

    def test_conflict_with_chain_end_accepted(self):
        sched, t1, t2, t3 = admitted_chain()
        # T4 reads D: conflicts only with T3 (an endpoint): accepted.
        t4 = TransactionRuntime(TransactionSpec(4, [Step.write(D, 1)]))
        assert sched.admit(t4).admitted

    def test_no_conflict_always_accepted(self):
        sched, *_ = admitted_chain()
        t5 = TransactionRuntime(TransactionSpec(5, [Step.read(9, 2)]))
        assert sched.admit(t5).admitted

    def test_rejected_transaction_can_retry_later(self):
        sched, t1, t2, t3 = admitted_chain()
        t4 = TransactionRuntime(TransactionSpec(4, [Step.write(C, 1)]))
        assert not sched.admit(t4).admitted
        # After T2 commits the chain shrinks and T4 fits.
        for txn in (t1, t3):
            while not txn.finished_all_steps:
                sched.request_lock(txn, now=1)
                txn.advance_step()
            sched.commit(txn, now=1)
        while not t2.finished_all_steps:
            assert sched.request_lock(t2, now=2).granted
            t2.advance_step()
        sched.commit(t2, now=2)
        t4.reset_for_retry()
        assert sched.admit(t4).admitted


class TestChainCosts:
    def test_optimization_cost_charged_once_per_recompute(self):
        sched, t1, t2, t3 = admitted_chain()
        first = sched.request_lock(t1, now=1)
        assert first.cpu_cost == pytest.approx(sched.chaintime)
        second = sched.request_lock(t3, now=2)
        assert second.cpu_cost == 0.0  # W reused within keeptime
