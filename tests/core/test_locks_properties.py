"""Property-based tests of the lock table under random operation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LockMode, LockTable, Step, TransactionSpec
from repro.errors import LockTableError
from tests.oracles import k_conflict as oracle


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
    assert oracle.k_conflict_violated(table, k) == expected


@st.composite
def newcomers(draw):
    """An unregistered BAT of 1-3 steps on partitions 0-4 (partition 4
    is one no script declares)."""
    steps = [Step.write(partition, 1) if write else Step.read(partition, 1)
             for partition, write in draw(st.lists(
                 st.tuples(st.integers(min_value=0, max_value=4),
                           st.booleans()), min_size=1, max_size=3))]
    return TransactionSpec(99, steps)


@settings(max_examples=150, deadline=None)
@given(table_scripts(), st.integers(min_value=0, max_value=4), newcomers())
def test_k_violation_matches_bruteforce_in_both_modes(script, k, newcomer):
    """The per-partition tally ``k_conflict_violated`` judges an
    unregistered newcomer by gives the brute-force verdict on the table
    with it registered, over its own partitions, in the transactions
    mode K2 runs and in the declarations mode; so does the oracle."""
    table, alive = apply_script(script)
    verdicts = {count: table.k_conflict_violated(k, newcomer=newcomer,
                                                 count=count)
                for count in ("declarations", "transactions")}
    table.register(newcomer)
    touched = set(newcomer.partitions)
    pending = [d for tid in table.active_transactions
               for d in table.pending_of(tid)]

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
        expected = any(measure(decl) > k for decl in pending
                       if decl.partition in touched)
        assert verdicts[count] == expected
        assert oracle.k_conflict_violated(
            table, k, partitions=touched, count=count) == expected
        for decl in pending:
            assert oracle.conflict_count(table, decl, count) == measure(decl)
