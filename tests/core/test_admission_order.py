"""Admission decides before it registers.

A WTPG scheduler judges a newcomer with its declarations *not* entered in
the lock table: the K-conflict test counts the newcomer's steps against
each partition's pending entries, and the chain-form test reads a partner
map computed from :meth:`LockTable.declare`.  These properties hold that
order equal to the literal one -- register, then decide -- in verdict,
reason and partner map, and show that a rejected admission leaves the
lock table and the WTPG as they were.  The last tests seed mutants into
the unregistered path and check that the properties catch each one.
"""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import builder, locks
from repro.core.locks import LockTable
from repro.core.schedulers import (ChainC2PL, ChainScheduler, KConflictC2PL,
                                   KWTPGScheduler)
from repro.core.schedulers.base import (chain_form_rejection,
                                        k_conflict_rejection)
from repro.core.transaction import (Step, TransactionRuntime,
                                    TransactionSpec)
from repro.core.wtpg import WTPG
from tests.oracles import k_conflict as oracle

PARTITIONS = 4
COUNT_MODES = ("declarations", "transactions")


@st.composite
def specs(draw, tid):
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        partition = draw(st.integers(min_value=0, max_value=PARTITIONS - 1))
        cost = draw(st.integers(min_value=1, max_value=4))
        steps.append(Step.write(partition, cost) if draw(st.booleans())
                     else Step.read(partition, cost))
    return TransactionSpec(tid, steps)


@st.composite
def scenarios(draw):
    """Registered transactions (some locks granted) and a newcomer."""
    residents = [draw(specs(tid))
                 for tid in range(1, draw(st.integers(0, 6)) + 1)]
    grants = [(spec.tid, index) for spec in residents
              for index in range(len(spec.steps)) if draw(st.booleans())]
    newcomer = draw(specs(len(residents) + 1))
    return residents, grants, newcomer


def build(residents, grants):
    """A lock table and WTPG as admissions and grants leave them."""
    table, wtpg = LockTable(), WTPG()
    for spec in residents:
        table.register(spec)
        builder.add_transaction(wtpg, table, spec)
    for tid, index in grants:
        table.grant(tid, index)
    return table, wtpg


def registered_then_decided(table, wtpg, spec, k, count):
    """The literal order: register, decide, unregister."""
    table.register(spec)
    try:
        partners = builder.partner_conflicts(table, spec)
        touched = set(spec.partitions)
        k_reason = (f"K-conflict constraint (K={k}) violated"
                    if oracle.k_conflict_violated(table, k, partitions=touched,
                                                  count=count) else None)
        chain_reason = chain_form_rejection(wtpg, spec.tid, partners)
    finally:
        table.unregister(spec.tid)
    return k_reason, chain_reason, partners


def check_decided_before_registering(scenario, k, count):
    residents, grants, newcomer = scenario
    table, wtpg = build(residents, grants)
    before = table.snapshot()

    k_reason = k_conflict_rejection(table, newcomer, k, count)
    own = table.declare(newcomer)
    partners = builder.partner_conflicts(table, newcomer, own)
    chain_reason = chain_form_rejection(wtpg, newcomer.tid, partners)
    assert table.snapshot() == before
    assert not table.is_registered(newcomer.tid)

    literal = registered_then_decided(table, wtpg, newcomer, k, count)
    assert (k_reason, chain_reason) == literal[:2]
    # Same partners in the same order, each with the same declaration
    # pairs in the same order.
    assert list(partners.items()) == list(literal[2].items())


@settings(max_examples=300, deadline=None)
@given(scenarios(), st.integers(min_value=0, max_value=3),
       st.sampled_from(COUNT_MODES))
def test_deciding_unregistered_equals_register_then_decide(scenario, k,
                                                           count):
    check_decided_before_registering(scenario, k, count)


def table_state(sched):
    table, wtpg = sched.table, sched.wtpg
    return (table.snapshot(),
            [table.holds_on(p) for p in range(PARTITIONS)],
            table.active_transactions,
            sorted(wtpg.transactions),
            [(e.a, e.b, e.weight_ab, e.weight_ba, e.resolved_to)
             for e in wtpg.pairs()])


SCHEDULERS = {
    "K-WTPG/declarations": lambda k: KWTPGScheduler(
        k=k, k_count_mode="declarations"),
    "K-WTPG/transactions": lambda k: KWTPGScheduler(
        k=k, k_count_mode="transactions"),
    "K2-C2PL/declarations": lambda k: KConflictC2PL(
        k=k, k_count_mode="declarations"),
    "CHAIN": lambda k: ChainScheduler(),
    "CHAIN-C2PL": lambda k: ChainC2PL(),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SCHEDULERS)),
       st.integers(min_value=0, max_value=2),
       st.lists(specs(0), min_size=1, max_size=8),
       st.lists(st.booleans(), min_size=8, max_size=8))
def test_rejected_admission_leaves_table_and_graph_untouched(
        name, k, shapes, requests):
    sched = SCHEDULERS[name](k)
    k_constrained = name.startswith("K")
    calls = Counter()
    declare = LockTable.declare
    conflicting = LockTable.conflicting_transactions

    def counted_declare(spec):
        calls["declare"] += 1
        return declare(spec)

    def counted_conflicts(self, own, other):
        calls["conflicts"] += 1
        return conflicting(self, own, other)

    with mock.patch.object(LockTable, "declare",
                           staticmethod(counted_declare)), \
            mock.patch.object(LockTable, "conflicting_transactions",
                              counted_conflicts):
        for tid, shape in enumerate(shapes, 1):
            txn = TransactionRuntime(TransactionSpec(tid, shape.steps))
            before = table_state(sched)
            calls.clear()
            response = sched.admit(txn, now=float(tid))
            if not response.admitted:
                assert table_state(sched) == before, response.reason
                if k_constrained:
                    # Judged from the lock table alone.
                    assert not calls, dict(calls)
                continue
            assert sched.table.is_registered(tid) and tid in sched.wtpg
            if requests[tid - 1]:
                sched.request_lock(txn, now=float(tid))


# -- the properties catch seeded mutants of the unregistered path --------------

def doubled_newcomer(real):
    """Counts the newcomer's own declarations twice."""
    def peak(entries, count, newcomer=-1, modes=()):
        return real(entries, count, newcomer, list(modes) * 2)
    return peak


def uncounted_newcomer_owner(real):
    """Tallies the newcomer's modes but forgets it is an owner."""
    def peak(entries, count, newcomer=-1, modes=()):
        if modes and count == "transactions":
            exclusive = any(m is locks.LockMode.EXCLUSIVE for m in modes)
            writer = exclusive or any(
                d.mode is locks.LockMode.EXCLUSIVE for d in entries.values())
            owners = {owner for owner, _ in entries}
            return len(owners) - 1 if writer else 0
        return real(entries, count, newcomer, modes)
    return peak


def registered_sharers_only(real):
    """Finds partition sharers through the registered declarations only,
    so an unregistered newcomer has none."""
    def sharers(self, tid, declarations=None):
        return real(self, tid)
    return sharers


MUTANTS = {
    "double-count": (locks, "_partition_conflict_peak", doubled_newcomer,
                     "declarations"),
    "newcomer-not-an-owner": (locks, "_partition_conflict_peak",
                              uncounted_newcomer_owner, "transactions"),
    "sharers-of-registered-only": (LockTable, "partition_sharers",
                                   registered_sharers_only, "transactions"),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_property_catches_a_seeded_mutant(mutant):
    owner, attr, mutate, count = MUTANTS[mutant]

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None, report_multiple_bugs=False)
    @given(scenarios(), st.integers(min_value=0, max_value=3))
    def prop(scenario, k):
        check_decided_before_registering(scenario, k, count)

    with mock.patch.object(owner, attr, mutate(getattr(owner, attr))):
        with pytest.raises(AssertionError):
            prop()
    prop()  # and the real code passes the same examples
