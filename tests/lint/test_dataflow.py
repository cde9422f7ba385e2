"""Solver and lattice tests for :mod:`repro.lint.dataflow`.

The synthetic problems here run on tiny real CFGs (built from source
fixtures) so the solver is exercised through the same
:func:`~repro.lint.cfg.build_cfg` path the rules use.
"""

import ast
import textwrap

import pytest

from repro.lint.cfg import build_cfg, functions_of
from repro.lint.dataflow import (FixpointError, ResourceFact, ResourceSpec,
                                 UnionLattice, resource_gen_kill,
                                 resource_transfer, solve_forward)

LOCK = ResourceSpec(name="lock",
                    acquire=frozenset({"acquire"}),
                    release=frozenset({"release"}))


def cfg_of(source):
    tree = ast.parse(textwrap.dedent(source))
    return build_cfg(functions_of(tree)[0])


LOOP_SOURCE = """\
    def f(table, items):
        table.acquire()
        for item in items:
            if item.bad():
                table.release()
        return items
"""


# -- lattices ------------------------------------------------------------------

def test_union_lattice_is_a_join_semilattice():
    lat = UnionLattice()
    a, b = frozenset({1}), frozenset({2})
    assert lat.bottom() == frozenset()
    assert lat.join(a, b) == lat.join(b, a) == frozenset({1, 2})
    assert lat.join(a, lat.bottom()) == a


# -- convergence ---------------------------------------------------------------

def test_solver_converges_on_a_loop_with_a_conditional_kill():
    """May-analysis through a loop: after the loop the lock may or may
    not still be open (release on one path only), so the fact survives
    the join and is live at exit."""
    cfg = cfg_of(LOOP_SOURCE)
    result = solve_forward(cfg, UnionLattice(),
                           resource_transfer([LOCK]), frozenset())
    at_exit = result.entering(cfg.exit)
    assert {f.spec for f in at_exit} == {"lock"}
    [fact] = at_exit
    assert (fact.line, fact.call) == (2, "acquire")


def test_solver_reaches_the_same_fixpoint_regardless_of_seeding_order():
    cfg = cfg_of(LOOP_SOURCE)
    transfer = resource_transfer([LOCK])
    baseline = solve_forward(cfg, UnionLattice(), transfer, frozenset())
    again = solve_forward(cfg, UnionLattice(), transfer, frozenset())
    assert baseline.values_in == again.values_in
    assert baseline.values_out == again.values_out


def test_non_monotone_transfer_raises_fixpoint_error():
    """A transfer that alternates between two values never stabilises;
    the visit cap turns that into a loud error instead of a hang."""
    cfg = cfg_of(LOOP_SOURCE)
    flips = {}

    def transfer(node, value):
        flips[node.index] = not flips.get(node.index, False)
        return frozenset({("tick", flips[node.index])})

    with pytest.raises(FixpointError, match="non-monotone"):
        solve_forward(cfg, UnionLattice(), transfer, frozenset(),
                      max_passes=10)


# -- resource facts ------------------------------------------------------------

def test_resource_gen_kill_reads_method_calls_only():
    stmt = ast.parse("acquire(); t.acquire(); t.release()").body
    gens0, kills0 = resource_gen_kill(stmt[0], [LOCK])
    assert (gens0, kills0) == ([], frozenset())
    gens1, _ = resource_gen_kill(stmt[1], [LOCK])
    assert [(g.spec, g.call) for g in gens1] == [("lock", "acquire")]
    _, kills2 = resource_gen_kill(stmt[2], [LOCK])
    assert kills2 == frozenset({"lock"})


def test_resource_transfer_kills_before_it_gens():
    """A single statement that both releases and re-acquires leaves
    exactly the fresh fact open, not the stale one."""
    transfer = resource_transfer([LOCK])
    stale = ResourceFact("lock", 99, 0, "acquire")

    class FakeNode:
        def __init__(self, s):
            self.stmt = s

    release = ast.parse("t.release()").body[0]
    assert transfer(FakeNode(release), frozenset({stale})) == frozenset()

    both = ast.parse("t.acquire(t.release())").body[0]
    value = transfer(FakeNode(both), frozenset({stale}))
    assert stale not in value
    assert {(f.spec, f.call) for f in value} == {("lock", "acquire")}


def test_compound_headers_only_see_their_own_calls():
    """A loop header must not execute its body's calls: the release
    inside the loop body kills at the body node, never at the header."""
    stmt = ast.parse(textwrap.dedent("""\
        for item in items:
            t.release()
    """)).body[0]
    gens, kills = resource_gen_kill(stmt, [LOCK])
    assert (gens, kills) == ([], frozenset())
