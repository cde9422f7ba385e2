"""Worklist fixpoint solver and resource-fact layer for the lint CFGs.

The solver is deliberately tiny and generic: a forward dataflow problem
is a :class:`Lattice` (bottom + join), a transfer function mapping
``(node, in_value) -> out_value``, and an entry value.  Every rule runs
a may-analysis over :class:`UnionLattice` (``frozenset`` facts); a
small "resource" facts layer turns method-call patterns into gen/kill
sets, which is how RL006 (lock lifecycle) describes its problem.

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
from typing import (Callable, Dict, FrozenSet, Generic, Iterator, List,
                    Optional, Sequence, Tuple, TypeVar)

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
# Resource facts: gen/kill from method-call patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResourceSpec:
    """One protocol resource: what opens it and what closes it.

    Both sets are *method names* matched against attribute calls
    (``anything.<name>(...)``).  Receiver identity is deliberately not
    tracked — in this codebase each function works with one lock table /
    one WTPG, so a release of the right *kind* closes every open
    resource of that kind.  The limitation is documented in
    docs/lint.md.
    """

    name: str
    acquire: FrozenSet[str]
    release: FrozenSet[str]


@dataclass(frozen=True)
class ResourceFact:
    """One open resource, keyed by its acquire site."""

    spec: str
    line: int
    col: int
    call: str  # the method name that opened it, for messages


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


def resource_gen_kill(stmt: ast.AST, specs: Sequence[ResourceSpec],
                      ) -> Tuple[List[ResourceFact], FrozenSet[str]]:
    """The resources a statement opens and the spec names it closes."""
    gens: List[ResourceFact] = []
    kills: List[str] = []
    for call in calls_of(stmt):
        name = method_name_of(call)
        if name is None:
            continue
        for spec in specs:
            if name in spec.acquire:
                gens.append(ResourceFact(spec.name, call.lineno,
                                         call.col_offset, name))
            if name in spec.release:
                kills.append(spec.name)
    return gens, frozenset(kills)


def resource_transfer(specs: Sequence[ResourceSpec],
                      ) -> Transfer[FrozenSet[object]]:
    """Standard transfer for open-resource tracking: kill, then gen.

    Kills run first so a statement that closes and re-opens the same
    resource kind ends the statement with only the fresh fact open.
    """
    def transfer(node: CFGNode,
                 value: FrozenSet[object]) -> FrozenSet[object]:
        if node.stmt is None or not isinstance(node.stmt, ast.stmt):
            return value
        gens, kills = resource_gen_kill(node.stmt, specs)
        if kills:
            value = frozenset(f for f in value
                              if not (isinstance(f, ResourceFact)
                                      and f.spec in kills))
        if gens:
            value = value | frozenset(gens)
        return value
    return transfer
