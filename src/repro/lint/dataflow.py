"""Worklist fixpoint solver for the lint CFGs.

The solver is deliberately tiny: a forward dataflow problem is a
transfer function mapping ``(node, in_facts) -> out_facts`` and an
entry value.  Facts are ``frozenset`` s joined by union, so every
analysis is a may-analysis (a fact holds if it holds on *some* path);
the lifecycle rules describe theirs as typestate protocols
(:mod:`repro.lint.typestate`).

Termination: the solver requires a monotone transfer function over a
finite fact space (true here: facts are drawn from the finitely
many sites of one function).  A hard iteration
cap turns an accidental non-monotone transfer into a loud
:class:`FixpointError` instead of a hang.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterator, Optional

from repro.lint.cfg import CFG, CFGNode, header_exprs


class FixpointError(RuntimeError):
    """The solver failed to converge — the transfer is not monotone."""


#: A set of dataflow facts; the join is set union.
Facts = FrozenSet[object]

Transfer = Callable[[CFGNode, Facts], Facts]


@dataclass
class DataflowResult:
    """Per-node in/out facts of a converged forward analysis."""

    cfg: CFG
    values_in: Dict[int, Facts]
    values_out: Dict[int, Facts]

    def entering(self, node: CFGNode) -> Facts:
        return self.values_in[node.index]

    def leaving(self, node: CFGNode) -> Facts:
        return self.values_out[node.index]


def solve_forward(cfg: CFG, transfer: Transfer, entry_value: Facts,
                  max_passes: int = 100) -> DataflowResult:
    """Run a forward worklist fixpoint over the CFG.

    ``max_passes`` bounds how often any single node may be reprocessed;
    with a monotone transfer the bound is never reached (one function's
    fact space is tiny).
    """
    values_in: Dict[int, Facts] = {n.index: frozenset() for n in cfg.nodes}
    values_out: Dict[int, Facts] = {n.index: frozenset() for n in cfg.nodes}
    values_in[cfg.entry.index] = entry_value
    values_out[cfg.entry.index] = transfer(cfg.entry, entry_value)

    worklist = deque(node.index for node in cfg.nodes)
    queued = set(worklist)
    visits: Dict[int, int] = {}
    while worklist:
        index = worklist.popleft()
        queued.discard(index)
        node = cfg.nodes[index]
        visits[index] = visits.get(index, 0) + 1
        if visits[index] > max_passes:
            raise FixpointError(
                f"dataflow did not converge at node {node.base_label()} "
                f"of {cfg.name!r}: non-monotone transfer function?")
        if node is cfg.entry:
            in_value = entry_value
        else:
            in_value = frozenset()
            for pred in node.preds:
                in_value = in_value | values_out[pred]
        out_value = transfer(node, in_value)
        values_in[index] = in_value
        if out_value != values_out[index]:
            values_out[index] = out_value
            for succ in node.succs:
                if succ not in queued:
                    worklist.append(succ)
                    queued.add(succ)
    return DataflowResult(cfg, values_in, values_out)


# ---------------------------------------------------------------------------
# Call helpers shared by the rules
# ---------------------------------------------------------------------------

def calls_of(stmt: ast.AST) -> Iterator[ast.Call]:
    """Every call this statement's own CFG node evaluates.

    Restricted to :func:`~repro.lint.cfg.header_exprs`: a compound
    statement's node contributes only its header calls — the nested body
    is covered by the body statements' own nodes.
    """
    for root in header_exprs(stmt):
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                yield node


def method_name_of(call: ast.Call) -> Optional[str]:
    """``name`` for an ``<expr>.name(...)`` call, else None."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None
