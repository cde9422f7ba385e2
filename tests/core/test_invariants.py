"""Tests for the WTPG/lock-table consistency checker.

Both directions: live schedulers must stay consistent mid-workload under
random operation, and deliberately corrupted structures must be caught.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import LockTable, Step, TransactionSpec, WTPG
from repro.core.builder import add_transaction
from repro.core.invariants import check_consistency, find_violations
from repro.core.schedulers import make_scheduler
from repro.core.schedulers.base import Decision, WTPGScheduler
from repro.core.transaction import TransactionRuntime
from repro.errors import SchedulerError


def consistent_state():
    table, wtpg = LockTable(), WTPG()
    specs = [
        TransactionSpec(1, [Step.read(0, 1), Step.write(0, 1)]),
        TransactionSpec(2, [Step.write(0, 4)]),
        TransactionSpec(3, [Step.read(5, 2)]),
    ]
    for spec in specs:
        table.register(spec)
        add_transaction(wtpg, table, spec)
    return table, wtpg


class TestCleanState:
    def test_fresh_state_is_consistent(self):
        table, wtpg = consistent_state()
        check_consistency(table, wtpg)

    def test_grant_with_resolution_stays_consistent(self):
        table, wtpg = consistent_state()
        table.grant(1, 0)
        wtpg.resolve(1, 2)  # holder-first
        check_consistency(table, wtpg)

    def test_empty_structures_consistent(self):
        check_consistency(LockTable(), WTPG())


class TestDetection:
    def test_missing_node_detected(self):
        table, wtpg = consistent_state()
        wtpg.remove_transaction(3)
        assert any("node set" in p for p in find_violations(table, wtpg))

    def test_missing_pair_edge_detected(self):
        table, wtpg = consistent_state()
        wtpg.remove_transaction(2)
        wtpg.add_transaction(2, 4)  # re-add node but lose its edges
        problems = find_violations(table, wtpg)
        assert any("missing pair edge" in p for p in problems)

    def test_spurious_pair_edge_detected(self):
        table, wtpg = consistent_state()
        wtpg.ensure_pair(1, 3)  # T1 and T3 share no granule
        problems = find_violations(table, wtpg)
        assert any("without conflicting declarations" in p for p in problems)

    def test_underweight_edge_detected(self):
        table, wtpg = consistent_state()
        wtpg.pair(1, 2).weight_ab = 0.0  # corrupt w(T1->T2)
        assert any("below due" in p for p in find_violations(table, wtpg))

    def test_unresolved_holder_detected(self):
        table, wtpg = consistent_state()
        table.grant(2, 0)  # T2 holds X on P0, pair (1,2) still unresolved
        problems = find_violations(table, wtpg)
        assert any("holder-first" in p for p in problems)

    def test_cycle_detected(self):
        # Three pairwise-conflicting writers resolved cyclically: legal at
        # the WTPG level (pairs are independent) but an unavoidable
        # deadlock — schedulers must never produce it.
        table, wtpg = LockTable(), WTPG()
        for tid in (1, 2, 3):
            spec = TransactionSpec(tid, [Step.write(0, 1)])
            table.register(spec)
            add_transaction(wtpg, table, spec)
        wtpg.resolve(1, 2)
        wtpg.resolve(2, 3)
        wtpg.resolve(3, 1)
        assert any("cycle" in p for p in find_violations(table, wtpg))

    def test_excess_source_weight_detected(self):
        table, wtpg = consistent_state()
        wtpg.set_source_weight(3, 99)
        assert any("exceeds" in p for p in find_violations(table, wtpg))

    def test_check_consistency_raises(self):
        table, wtpg = consistent_state()
        wtpg.set_source_weight(3, 99)
        with pytest.raises(SchedulerError):
            check_consistency(table, wtpg)


@st.composite
def operation_sequences(draw):
    ops = []
    for tid in range(1, draw(st.integers(min_value=2, max_value=6)) + 1):
        steps = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            partition = draw(st.integers(min_value=0, max_value=3))
            write = draw(st.booleans())
            cost = draw(st.integers(min_value=1, max_value=4))
            steps.append(Step.write(partition, cost) if write
                         else Step.read(partition, cost))
        ops.append(TransactionSpec(tid, steps))
    return ops


@pytest.mark.parametrize("name", ["C2PL", "CHAIN", "K2"])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(specs=operation_sequences())
def test_live_schedulers_stay_consistent_mid_workload(name, specs):
    """Drive a scheduler step by step; check invariants after every op."""
    scheduler = make_scheduler(name)
    assert isinstance(scheduler, WTPGScheduler)
    runtimes = [TransactionRuntime(spec) for spec in specs]
    admitted = set()
    now = 0.0
    for _ in range(60):
        progressed = False
        for txn in runtimes:
            now += 1
            if txn.committed:
                continue
            if txn.tid not in admitted:
                if scheduler.admit(txn, now).admitted:
                    admitted.add(txn.tid)
                    progressed = True
                check_consistency(scheduler.table, scheduler.wtpg)
                continue
            if txn.finished_all_steps:
                scheduler.commit(txn, now)
                txn.commit_time = now
                progressed = True
            elif scheduler.request_lock(txn, now).decision is Decision.GRANT:
                for _ in range(int(txn.step().cost)):
                    scheduler.object_processed(txn)
                txn.advance_step()
                progressed = True
            check_consistency(scheduler.table, scheduler.wtpg)
        if not progressed and all(t.committed for t in runtimes):
            break


def drive(scheduler, specs, passes):
    """Admit, grant and commit round-robin for ``passes`` rounds."""
    runtimes = [TransactionRuntime(spec) for spec in specs]
    admitted = set()
    now = 0.0
    for _ in range(passes):
        for txn in runtimes:
            now += 1
            if txn.committed:
                continue
            if txn.tid not in admitted:
                if scheduler.admit(txn, now).admitted:
                    admitted.add(txn.tid)
            elif txn.finished_all_steps:
                scheduler.commit(txn, now)
                txn.commit_time = now
            elif scheduler.request_lock(txn, now).decision is Decision.GRANT:
                for _ in range(int(txn.step().cost)):
                    scheduler.object_processed(txn)
                txn.advance_step()


def plant(kind, table, wtpg, rng):
    """Corrupt one live pair in a way ``find_violations`` must report;
    False when the state offers no pair to corrupt that way."""
    live = sorted(table.active_transactions & wtpg.transactions)
    pairs = [(a, b) for i, a in enumerate(live) for b in live[i + 1:]]
    rng.shuffle(pairs)
    for a, b in pairs:
        conflicts = table.conflicting_transactions(table.declarations_of(a), b)
        edge = wtpg.pair(a, b)
        if kind == "spurious edge" and not conflicts and edge is None:
            wtpg.ensure_pair(a, b)
            return True
        if kind == "lost edges" and conflicts and edge is not None:
            weight = wtpg.source_weight(a)
            wtpg.remove_transaction(a)
            wtpg.add_transaction(a, weight)
            return True
        if kind == "zero weights" and edge is not None:
            edge.weight_ab = edge.weight_ba = 0.0
            return bool(conflicts)
        if kind == "unordered holder" and edge is not None \
                and not edge.resolved:
            for mine, theirs in conflicts:
                if not table.is_granted(mine) and not table.is_granted(theirs):
                    table.grant(a, mine.step_index)
                    return True
    return False


PLANTS = ("spurious edge", "lost edges", "zero weights", "unordered holder")


@pytest.mark.parametrize("name", ["C2PL", "K2"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(specs=operation_sequences(), passes=st.integers(0, 4),
       plants=st.lists(st.sampled_from(PLANTS), max_size=3),
       seed=st.integers(0, 2**16))
def test_partition_scan_equals_all_pairs_on_planted_violations(
        name, specs, passes, plants, seed):
    """``find_violations`` examines partition sharers and WTPG pairs
    only; on any mid-workload state, with or without planted faults, it
    reports exactly what the all-pairs oracle reports."""
    import random
    from tests.oracles import find_violations_all_pairs

    scheduler = make_scheduler(name)
    drive(scheduler, specs, passes)
    table, wtpg = scheduler.table, scheduler.wtpg
    rng = random.Random(seed)
    planted = [kind for kind in plants if plant(kind, table, wtpg, rng)]
    problems = find_violations(table, wtpg)
    assert problems == find_violations_all_pairs(table, wtpg)
    assert bool(problems) == bool(planted)
