"""Solver and lattice tests for :mod:`repro.lint.dataflow`.

The synthetic problems here run on tiny real CFGs (built from source
fixtures) so the solver is exercised through the same
:func:`~repro.lint.cfg.build_cfg` path the rules use.
"""

import ast
import textwrap

import pytest

from repro.lint.cfg import build_cfg, functions_of, header_exprs
from repro.lint.dataflow import FixpointError, method_name_of, solve_forward


def calls_of(stmt):
    """Every call one CFG node evaluates: its header expressions only."""
    return [node for root in header_exprs(stmt) for node in ast.walk(root)
            if isinstance(node, ast.Call)]


def lock_transfer(node, value):
    """A minimal gen/kill problem: ``.release()`` kills every open lock,
    then ``.acquire()`` gens one keyed by its line."""
    if node.stmt is None:
        return value
    for call in calls_of(node.stmt):
        if method_name_of(call) == "release":
            value = frozenset()
    for call in calls_of(node.stmt):
        if method_name_of(call) == "acquire":
            value = value | {("lock", call.lineno)}
    return value


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


# -- convergence ---------------------------------------------------------------

def test_solver_converges_on_a_loop_with_a_conditional_kill():
    """May-analysis through a loop: after the loop the lock may or may
    not still be open (release on one path only), so the fact survives
    the join and is live at exit."""
    cfg = cfg_of(LOOP_SOURCE)
    result = solve_forward(cfg, lock_transfer, frozenset())
    assert result.entering(cfg.exit) == frozenset({("lock", 2)})


def test_solver_reaches_the_same_fixpoint_regardless_of_seeding_order():
    cfg = cfg_of(LOOP_SOURCE)
    baseline = solve_forward(cfg, lock_transfer, frozenset())
    again = solve_forward(cfg, lock_transfer, frozenset())
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
        solve_forward(cfg, transfer, frozenset(),
                      max_passes=10)


# -- call helpers -------------------------------------------------------------

def test_compound_headers_only_see_their_own_calls():
    """A loop header must not execute its body's calls: the release
    inside the loop body is seen at the body node, never at the header."""
    stmt = ast.parse(textwrap.dedent("""\
        for item in t.items():
            t.release()
    """)).body[0]
    assert [method_name_of(call) for call in calls_of(stmt)] == ["items"]
