"""Tests for lock-table -> WTPG wiring, anchored on Figure 1 / Figure 2.

Figure 1's three transactions (with partitions A=0, B=1, C=2, D=3):
    T1: r1(A:1) -> r1(B:3) -> w1(A:1)
    T2: r2(C:1) -> w2(A:1)
    T3: w3(C:1) -> r3(D:3)
Starting all three must produce exactly the WTPG of Figure 2-(a).
"""

import pytest

from repro.core import LockMode, LockTable, Step, TransactionSpec, WTPG
from repro.core.builder import (add_transaction, implied_resolutions,
                                partner_conflicts, remove_transaction)
from repro.errors import WTPGError

A, B, C, D = 0, 1, 2, 3


def figure1_specs():
    t1 = TransactionSpec(1, [Step.read(A, 1), Step.read(B, 3), Step.write(A, 1)])
    t2 = TransactionSpec(2, [Step.read(C, 1), Step.write(A, 1)])
    t3 = TransactionSpec(3, [Step.write(C, 1), Step.read(D, 3)])
    return t1, t2, t3


def start_all():
    table, wtpg = LockTable(), WTPG()
    for spec in figure1_specs():
        table.register(spec)
        add_transaction(wtpg, table, spec)
    return table, wtpg


class TestFigure2Construction:
    def test_source_weights(self):
        _, g = start_all()
        assert g.source_weight(1) == 5
        assert g.source_weight(2) == 2
        assert g.source_weight(3) == 4

    def test_pair_edges_exist_exactly_where_figure2_has_them(self):
        _, g = start_all()
        assert g.pair(1, 2) is not None   # conflict on A
        assert g.pair(2, 3) is not None   # conflict on C
        assert g.pair(1, 3) is None       # no common granule

    def test_figure2_weights(self):
        _, g = start_all()
        # w(T1->T2) = due of T2's conflicting step w2(A:1) = 1.
        assert g.pair(1, 2).weight_to(2) == 1
        # w(T2->T1) = max over T1's conflicting steps (r1(A) due=5,
        # w1(A) due=1) = 5 — "set to the largest values" (Section 3.1).
        assert g.pair(1, 2).weight_to(1) == 5
        # w(T2->T3) = due of T3's conflicting step w3(C:1) = 4.
        assert g.pair(2, 3).weight_to(3) == 4
        # w(T3->T2) = due of T2's conflicting step r2(C:1) = 2.
        assert g.pair(2, 3).weight_to(2) == 2

    def test_nothing_resolved_initially(self):
        _, g = start_all()
        assert len(g.unresolved_pairs()) == 2

    def test_conflict_partners(self):
        table, _ = start_all()
        t1, t2, t3 = figure1_specs()
        partners = partner_conflicts(table, t2)
        assert list(partners) == [1, 3]  # ascending partner order
        # w2(A) against both of T1's A declarations; r2(C) against w3(C).
        assert [(mine.step_index, theirs.step_index)
                for mine, theirs in partners[1]] == [(1, 0), (1, 2)]
        assert [(mine.step_index, theirs.step_index)
                for mine, theirs in partners[3]] == [(0, 0)]
        assert list(partner_conflicts(table, t1)) == [2]
        # T3 shares no partition with T1: never even asked about it.
        assert table.partition_sharers(1) == [2]


class TestWeightsTakeMaxOverStepPairs:
    def test_multiple_conflicting_steps_take_max_due(self):
        table, wtpg = LockTable(), WTPG()
        # T1 reads then writes P0: dues 2 (read, at index 0) and 1 (write).
        t1 = TransactionSpec(1, [Step.read(0, 1), Step.write(0, 1)])
        # T2 writes P0: its X conflicts with both of T1's steps.
        t2 = TransactionSpec(2, [Step.write(0, 4)])
        for spec in (t1, t2):
            table.register(spec)
            add_transaction(wtpg, table, spec)
        # w(T2->T1) = max(due(r)=2, due(w)=1) = 2.
        assert wtpg.pair(1, 2).weight_to(1) == 2
        # w(T1->T2) = due of T2's write = 4 (same for both conflicts).
        assert wtpg.pair(1, 2).weight_to(2) == 4


class TestHoldersForceResolution:
    def test_pair_preresolved_when_other_holds_conflicting_lock(self):
        table, wtpg = LockTable(), WTPG()
        t1 = TransactionSpec(1, [Step.write(0, 2)])
        table.register(t1)
        add_transaction(wtpg, table, t1)
        table.grant(1, 0)  # T1 now holds X on P0

        t2 = TransactionSpec(2, [Step.read(0, 1)])
        table.register(t2)
        add_transaction(wtpg, table, t2)
        # T1 must commit before T2 can read P0.
        assert wtpg.orientation(1, 2) == (1, 2)

    def test_pending_conflict_does_not_force(self):
        table, wtpg = LockTable(), WTPG()
        t1 = TransactionSpec(1, [Step.write(0, 2)])
        table.register(t1)
        add_transaction(wtpg, table, t1)
        t2 = TransactionSpec(2, [Step.read(0, 1)])
        table.register(t2)
        add_transaction(wtpg, table, t2)
        assert wtpg.orientation(1, 2) is None


class TestImpliedResolutions:
    def test_grant_implies_order_against_pending_conflicts(self):
        table, g = start_all()
        # Granting T2's X on A implies T2 -> T1 (T1 has pending r/w on A).
        implied = implied_resolutions(table, g, 2, A, LockMode.EXCLUSIVE)
        assert implied == ((2, 1),)

    def test_granted_locks_do_not_reappear(self):
        table, g = start_all()
        table.grant(1, 0)  # T1 holds S on A
        implied = implied_resolutions(table, g, 2, A, LockMode.EXCLUSIVE)
        # T1's remaining pending declaration on A (the write) still counts.
        assert implied == ((2, 1),)
        table.grant(1, 2)  # T1 now also holds X on A
        assert implied_resolutions(table, g, 2, A, LockMode.EXCLUSIVE) == ()

    def test_shared_request_does_not_imply_against_shared(self):
        table, wtpg = LockTable(), WTPG()
        for tid in (1, 2):
            spec = TransactionSpec(tid, [Step.read(0, 1)])
            table.register(spec)
            add_transaction(wtpg, table, spec)
        assert implied_resolutions(table, wtpg, 1, 0, LockMode.SHARED) == ()

    def test_deterministic_order(self):
        table, wtpg = LockTable(), WTPG()
        for tid in (5, 3, 8):
            spec = TransactionSpec(tid, [Step.write(0, 1)])
            table.register(spec)
            add_transaction(wtpg, table, spec)
        implied = implied_resolutions(table, wtpg, 5, 0, LockMode.EXCLUSIVE)
        assert implied == ((5, 3), (5, 8))


class TestRemoval:
    def test_remove_transaction_clears_both_structures(self):
        table, g = start_all()
        remove_transaction(g, table, 2)
        assert 2 not in g
        assert not table.is_registered(2)
        assert g.pair(1, 2) is None

    def test_add_requires_registration(self):
        table, g = LockTable(), WTPG()
        spec = TransactionSpec(1, [Step.read(0, 1)])
        with pytest.raises(WTPGError):
            add_transaction(g, table, spec)
