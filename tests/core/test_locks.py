"""Unit tests for the partition lock table with pre-declared locks."""

import pytest

from repro.core import LockMode, LockTable, Step, TransactionSpec
from repro.errors import LockTableError


def spec_rw(tid, partition=0):
    """r(P:1) -> w(P:1): a read-then-upgrade pattern on one partition."""
    return TransactionSpec(tid, [Step.read(partition, 1), Step.write(partition, 1)])


def spec_read(tid, partition=0, cost=1):
    return TransactionSpec(tid, [Step.read(partition, cost)])


def spec_write(tid, partition=0, cost=1):
    return TransactionSpec(tid, [Step.write(partition, cost)])


class TestRegistration:
    def test_register_enters_all_declarations(self):
        table = LockTable()
        table.register(spec_rw(1))
        decls = table.declarations_of(1)
        assert len(decls) == 2
        assert {d.mode for d in decls} == {LockMode.SHARED, LockMode.EXCLUSIVE}

    def test_declarations_carry_due_values(self):
        table = LockTable()
        spec = TransactionSpec(1, [Step.read(0, 1), Step.read(1, 3), Step.write(0, 1)])
        table.register(spec)
        dues = {d.step_index: d.due for d in table.declarations_of(1)}
        assert dues == {0: 5, 1: 4, 2: 1}

    def test_double_register_rejected(self):
        table = LockTable()
        table.register(spec_read(1))
        with pytest.raises(LockTableError):
            table.register(spec_read(1))

    def test_unregister_removes_everything(self):
        table = LockTable()
        table.register(spec_rw(1))
        table.grant(1, 0)
        table.unregister(1)
        assert not table.is_registered(1)
        assert table.active_transactions == set()
        assert table.held_mode(1, 0) is None

    def test_unregister_unknown_rejected(self):
        with pytest.raises(LockTableError):
            LockTable().unregister(42)


class TestGrants:
    def test_grant_converts_declaration_to_hold(self):
        table = LockTable()
        table.register(spec_read(1, partition=5))
        assert table.held_mode(1, 5) is None
        table.grant(1, 0)
        assert table.held_mode(1, 5) is LockMode.SHARED
        assert len(table.pending_of(1)) == 0
        assert len(table.granted_of(1)) == 1

    def test_double_grant_rejected(self):
        table = LockTable()
        table.register(spec_read(1))
        table.grant(1, 0)
        with pytest.raises(LockTableError):
            table.grant(1, 0)

    def test_grant_unknown_step_rejected(self):
        table = LockTable()
        table.register(spec_read(1))
        with pytest.raises(LockTableError):
            table.grant(1, 7)

    def test_upgrade_reports_exclusive(self):
        table = LockTable()
        table.register(spec_rw(1, partition=3))
        table.grant(1, 0)
        assert table.held_mode(1, 3) is LockMode.SHARED
        table.grant(1, 1)
        assert table.held_mode(1, 3) is LockMode.EXCLUSIVE

    def test_holds_mode_semantics(self):
        table = LockTable()
        table.register(spec_write(1, partition=2))
        table.grant(1, 0)
        assert table.holds(1, 2, LockMode.SHARED)      # X covers S
        assert table.holds(1, 2, LockMode.EXCLUSIVE)
        assert not table.holds(1, 3, LockMode.SHARED)


class TestConflictQueries:
    def test_conflicting_holders_sees_other_writers(self):
        table = LockTable()
        table.register(spec_write(1))
        table.register(spec_read(2))
        table.grant(1, 0)
        assert table.conflicting_holders(2, 0, LockMode.SHARED) == {1}

    def test_shared_holders_do_not_conflict_with_shared(self):
        table = LockTable()
        table.register(spec_read(1))
        table.register(spec_read(2))
        table.grant(1, 0)
        assert table.conflicting_holders(2, 0, LockMode.SHARED) == set()
        assert table.conflicting_holders(2, 0, LockMode.EXCLUSIVE) == {1}

    def test_own_holds_never_conflict(self):
        table = LockTable()
        table.register(spec_rw(1))
        table.grant(1, 0)
        assert table.conflicting_holders(1, 0, LockMode.EXCLUSIVE) == set()

    def test_pending_conflicts_is_cq(self):
        table = LockTable()
        table.register(spec_write(1, partition=0))
        table.register(spec_write(2, partition=0))
        table.register(spec_read(3, partition=0))
        cq = table.pending_conflicts(1, 0, LockMode.EXCLUSIVE)
        assert {d.tid for d in cq} == {2, 3}

    def test_pending_conflicts_excludes_granted(self):
        table = LockTable()
        table.register(spec_write(1, partition=0))
        table.register(spec_write(2, partition=0))
        table.grant(2, 0)
        assert table.pending_conflicts(1, 0, LockMode.EXCLUSIVE) == []

    def test_conflicting_transactions_pairs(self):
        table = LockTable()
        t1 = spec_rw(1, partition=0)
        t2 = spec_write(2, partition=0)
        table.register(t1)
        table.register(t2)
        pairs = table.conflicting_transactions(table.declarations_of(1), 2)
        # T1's S and X both conflict with T2's X.
        assert len(pairs) == 2

    def test_conflicting_transactions_no_overlap(self):
        table = LockTable()
        table.register(spec_read(1, partition=0))
        table.register(spec_read(2, partition=1))
        assert table.conflicting_transactions(table.declarations_of(1), 2) == []


class TestKConflict:
    def test_conflict_count_counts_pending_declarations(self):
        table = LockTable()
        table.register(spec_write(1, partition=0))
        table.register(spec_write(2, partition=0))
        table.register(spec_write(3, partition=0))
        decl = table.declarations_of(1)[0]
        assert table.conflict_count(decl) == 2

    def test_conflict_count_ignores_granted(self):
        table = LockTable()
        table.register(spec_write(1, partition=0))
        table.register(spec_write(2, partition=0))
        table.grant(2, 0)
        decl = table.declarations_of(1)[0]
        assert table.conflict_count(decl) == 0

    def test_k_conflict_violated_boundary(self):
        table = LockTable()
        for tid in (1, 2, 3):
            table.register(spec_write(tid, partition=0))
        assert not table.k_conflict_violated(2)
        table.register(spec_write(4, partition=0))
        assert table.k_conflict_violated(2)
        assert not table.k_conflict_violated(3)

    def test_k_conflict_partition_filter(self):
        table = LockTable()
        for tid in (1, 2, 3, 4):
            table.register(spec_write(tid, partition=0))
        assert not table.k_conflict_violated(2, partitions=[1])
        assert table.k_conflict_violated(2, partitions=[0])

    def test_shared_declarations_do_not_count(self):
        table = LockTable()
        for tid in (1, 2, 3, 4, 5):
            table.register(spec_read(tid, partition=0))
        assert not table.k_conflict_violated(0)

    def test_reader_counts_each_repeated_write(self):
        """A reader behind one writer's three write declarations counts
        three conflicts by declaration, one by transaction; the writer's
        own declarations count only the reader."""
        table = LockTable()
        table.register(TransactionSpec(1, [Step.write(0, 1)] * 3))
        table.register(spec_read(2, partition=0))
        assert table.k_conflict_violated(2, count="declarations")
        assert not table.k_conflict_violated(3, count="declarations")
        assert not table.k_conflict_violated(0, partitions=[1],
                                             count="declarations")
        assert not table.k_conflict_violated(1, count="transactions")
        assert table.k_conflict_violated(0, count="transactions")


class TestSnapshot:
    def test_snapshot_readable(self):
        table = LockTable()
        table.register(spec_rw(1, partition=4))
        table.grant(1, 0)
        snap = table.snapshot()
        assert 4 in snap
        assert snap[4]["granted"] == ["T1.0:S"]
        assert snap[4]["pending"] == ["T1.1:X"]
