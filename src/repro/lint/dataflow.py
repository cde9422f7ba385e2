"""Worklist fixpoint solver for the lint CFGs.

The solver is deliberately tiny and generic: a forward dataflow problem
is a :class:`Lattice` (bottom + join), a transfer function mapping
``(node, in_value) -> out_value``, and an entry value.  Every rule runs
a may-analysis over :class:`UnionLattice` (``frozenset`` facts); the
lifecycle rules describe theirs as typestate protocols
(:mod:`repro.lint.typestate`).

Termination: the solver requires a monotone transfer function over a
finite-height lattice (true here: facts are drawn from the finitely
many sites of one function).  A hard iteration
cap turns an accidental non-monotone transfer into a loud
:class:`FixpointError` instead of a hang.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, Generic, Iterator, Optional,
                    TypeVar)

from repro.lint.cfg import CFG, CFGNode, header_exprs

T = TypeVar("T")


class FixpointError(RuntimeError):
    """The solver failed to converge — the transfer is not monotone."""


class Lattice(Generic[T]):
    """A join-semilattice: ``bottom`` plus a commutative ``join``."""

    def bottom(self) -> T:
        raise NotImplementedError

    def join(self, left: T, right: T) -> T:
        raise NotImplementedError


class UnionLattice(Lattice[FrozenSet[object]]):
    """May-analysis: a fact holds if it holds on *some* path."""

    def bottom(self) -> FrozenSet[object]:
        return frozenset()

    def join(self, left: FrozenSet[object],
             right: FrozenSet[object]) -> FrozenSet[object]:
        return left | right


Transfer = Callable[[CFGNode, T], T]


@dataclass
class DataflowResult(Generic[T]):
    """Per-node in/out values of a converged forward analysis."""

    cfg: CFG
    values_in: Dict[int, T]
    values_out: Dict[int, T]

    def entering(self, node: CFGNode) -> T:
        return self.values_in[node.index]

    def leaving(self, node: CFGNode) -> T:
        return self.values_out[node.index]


def solve_forward(cfg: CFG, lattice: Lattice[T], transfer: Transfer[T],
                  entry_value: T,
                  max_passes: int = 100) -> DataflowResult[T]:
    """Run a forward worklist fixpoint over the CFG.

    ``max_passes`` bounds how often any single node may be reprocessed;
    with a monotone transfer the bound is never reached (the lattice
    height of one function's fact space is tiny).
    """
    values_in: Dict[int, T] = {n.index: lattice.bottom() for n in cfg.nodes}
    values_out: Dict[int, T] = {n.index: lattice.bottom() for n in cfg.nodes}
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
            in_value = lattice.bottom()
            for pred in node.preds:
                in_value = lattice.join(in_value, values_out[pred])
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
