"""Property-based tests of the lock table under random operation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LockMode, LockTable, Step, TransactionSpec
from repro.errors import LockTableError


@st.composite
def table_scripts(draw):
    """A random sequence of register / grant / unregister operations."""
    script = []
    num_txns = draw(st.integers(min_value=1, max_value=6))
    for tid in range(1, num_txns + 1):
        steps = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            partition = draw(st.integers(min_value=0, max_value=3))
            write = draw(st.booleans())
            cost = draw(st.integers(min_value=1, max_value=4))
            steps.append(Step.write(partition, cost) if write
                         else Step.read(partition, cost))
        script.append(("register", TransactionSpec(tid, steps)))
        for index in range(len(steps)):
            if draw(st.booleans()):
                script.append(("grant", (tid, index)))
        if draw(st.booleans()):
            script.append(("unregister", tid))
    return script


def apply_script(script):
    table = LockTable()
    alive = {}
    for op, payload in script:
        if op == "register":
            table.register(payload)
            alive[payload.tid] = payload
        elif op == "grant":
            tid, index = payload
            if tid in alive:
                table.grant(tid, index)
        elif op == "unregister":
            if payload in alive:
                table.unregister(payload)
                del alive[payload]
    return table, alive


@settings(max_examples=150, deadline=None)
@given(table_scripts())
def test_partition_entries_match_by_txn_view(script):
    """Every declaration is reachable both per-partition and per-txn."""
    table, alive = apply_script(script)
    assert table.active_transactions == set(alive)
    for tid, spec in alive.items():
        decls = table.declarations_of(tid)
        assert len(decls) == len(spec.steps)
        pending = set(table.pending_of(tid))
        granted = set(table.granted_of(tid))
        assert pending | granted == set(decls)
        assert not pending & granted


@settings(max_examples=150, deadline=None)
@given(table_scripts())
def test_granted_conflicts_visible_as_holders(script):
    """conflicting_holders sees exactly other txns' conflicting grants."""
    table, alive = apply_script(script)
    for tid, spec in alive.items():
        for step in spec.steps:
            holders = table.conflicting_holders(tid, step.partition,
                                                step.mode)
            assert tid not in holders
            for other in holders:
                held = table.held_mode(other, step.partition)
                assert held is not None
                assert held.conflicts_with(step.mode)


@settings(max_examples=150, deadline=None)
@given(table_scripts())
def test_conflict_counts_are_symmetric(script):
    """If decl A counts decl B as a conflict, B counts A too (pending)."""
    table, alive = apply_script(script)
    pending = [d for tid in alive for d in table.pending_of(tid)]
    for a in pending:
        for b in pending:
            if a.tid == b.tid or a.partition != b.partition:
                continue
            assert a.mode.conflicts_with(b.mode) == \
                b.mode.conflicts_with(a.mode)


@settings(max_examples=150, deadline=None)
@given(table_scripts())
def test_unregister_leaves_no_residue(script):
    table, alive = apply_script(script)
    for tid in list(alive):
        table.unregister(tid)
    assert table.active_transactions == set()
    assert table.snapshot() == {}


@settings(max_examples=100, deadline=None)
@given(table_scripts(), st.integers(min_value=0, max_value=4))
def test_k_violation_matches_bruteforce_count(script, k):
    table, alive = apply_script(script)
    pending = [d for tid in alive for d in table.pending_of(tid)]
    expected = any(
        sum(1 for other in pending
            if other.tid != decl.tid
            and other.partition == decl.partition
            and other.mode.conflicts_with(decl.mode)) > k
        for decl in pending)
    assert table.k_conflict_violated(k) == expected


@settings(max_examples=150, deadline=None)
@given(table_scripts(), st.integers(min_value=0, max_value=4),
       st.sets(st.integers(min_value=0, max_value=4)))
def test_k_violation_matches_bruteforce_in_both_modes(script, k, touched):
    """The per-partition tally behind ``k_conflict_violated`` gives the
    brute-force verdict in the transactions mode K2 runs, in the
    declarations mode, and under the ``partitions=`` restriction
    admission uses (a partition no declaration names included)."""
    table, alive = apply_script(script)
    pending = [d for tid in alive for d in table.pending_of(tid)]

    def rivals(decl):
        return [other for other in pending
                if other.tid != decl.tid
                and other.partition == decl.partition
                and other.mode.conflicts_with(decl.mode)]

    counts = {
        "declarations": lambda decl: len(rivals(decl)),
        "transactions": lambda decl: len({o.tid for o in rivals(decl)}),
    }
    for count, measure in counts.items():
        assert table.k_conflict_violated(k, count=count) == any(
            measure(decl) > k for decl in pending)
        assert table.k_conflict_violated(
            k, partitions=touched, count=count) == any(
            measure(decl) > k for decl in pending
            if decl.partition in touched)
        for decl in pending:
            assert table.conflict_count(decl, count=count) == measure(decl)
