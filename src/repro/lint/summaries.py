"""Bottom-up function summaries over the project call graph.

Each function gets a :class:`FunctionSummary` with the one
interprocedural fact the rules consume:

``may_yield``
    The body contains a ``yield``/``yield from``, or calls (through the
    resolved call graph) a function that may yield.  This is what makes
    a call a *context switch* for RL009 and what RL012 forbids reaching
    from ``core/schedulers/``.

The fact is the least fixpoint of "yields itself or calls a function
that may yield", so it is one reverse-reachability pass over the
resolved call edges from the functions with a syntactic yield; mutual
recursion needs nothing special.  Unresolved calls contribute nothing —
the summaries describe only what the resolved project graph can prove,
and the rules document that limit.  The table also owns the one CFG per
function the flow rules share.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.callgraph import (CallGraph, CallSite, FunctionDecl,
                                  FunctionId)
from repro.lint.cfg import CFG, build_cfg, header_exprs


@dataclass(frozen=True)
class FunctionSummary:
    """The interprocedural facts of one function (see module docstring)."""

    may_yield: bool = False


def _param_names(fn: ast.AST) -> List[str]:
    args = getattr(fn, "args", None)
    if args is None:
        return []
    return [arg.arg for arg in (list(args.posonlyargs) + list(args.args)
                                + list(args.kwonlyargs))]


def stmt_has_yield(stmt: ast.AST) -> bool:
    """Does this CFG node's own header contain a yield expression?"""
    stack: List[ast.AST] = list(header_exprs(stmt))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue  # a nested def's yields are not this node's
        stack.extend(ast.iter_child_nodes(node))
    return False


class SummaryTable:
    """Summaries for every function of a call graph, plus shared CFGs."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        #: CFGs are rebuilt nowhere else — the rules reuse these.
        self._cfgs: Dict[FunctionId, CFG] = {
            fid: build_cfg(decl.node)
            for fid, decl in graph.functions.items()}
        self._site_index: Dict[FunctionId, Dict[int, CallSite]] = {}
        may_yield = self._may_yield()
        self.summaries: Dict[FunctionId, FunctionSummary] = {
            fid: FunctionSummary(may_yield=fid in may_yield)
            for fid in graph.functions}

    def summary(self, fid: FunctionId) -> FunctionSummary:
        return self.summaries.get(fid, FunctionSummary())

    def cfg(self, fid: FunctionId) -> Optional[CFG]:
        return self._cfgs.get(fid)

    def call_may_yield(self, site: CallSite) -> bool:
        """Does this (resolved) call target a may-yield function?"""
        if site.callee is None:
            return False
        return self.summary(site.callee).may_yield

    def _may_yield(self) -> Set[FunctionId]:
        """Every function that reaches a syntactic yield over resolved
        call edges: the yielding functions and, transitively, their
        callers."""
        graph = self.graph
        callers: Dict[FunctionId, Set[FunctionId]] = {}
        for fid in graph.functions:
            for callee in graph.callees(fid):
                callers.setdefault(callee, set()).add(fid)
        frontier = [fid for fid, decl in graph.functions.items()
                    if decl.has_yield]
        reached = set(frontier)
        while frontier:
            for caller in callers.get(frontier.pop(), ()):
                if caller not in reached:
                    reached.add(caller)
                    frontier.append(caller)
        return reached

    def node_calls(self, fid: FunctionId,
                    stmt: ast.AST) -> List[CallSite]:
        """Calls at one CFG node, resolved against the graph.  CallSites
        are matched by identity of the ast.Call object."""
        by_id = self._site_index.get(fid)
        if by_id is None:
            by_id = {id(site.call): site
                     for site in self.graph.call_sites(fid)}
            self._site_index[fid] = by_id
        out: List[CallSite] = []
        for root in header_exprs(stmt):
            for node in ast.walk(root):
                if isinstance(node, ast.Call) and id(node) in by_id:
                    out.append(by_id[id(node)])
        return out


def bind_args(decl: FunctionDecl,
               call: ast.Call) -> List[Tuple[str, ast.AST]]:
    """Match call arguments to callee parameter names (best effort).

    Positional arguments map in order (skipping ``self``/``cls`` for
    methods), keywords by name; ``*args``/``**kwargs`` and starred
    arguments are ignored — the summaries only need the plain calls the
    codebase actually uses.
    """
    params = _param_names(decl.node)
    if decl.class_name is not None and params and params[0] in ("self",
                                                                "cls"):
        params = params[1:]
    out: List[Tuple[str, ast.AST]] = []
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if index < len(params):
            out.append((params[index], arg))
    for keyword in call.keywords:
        if keyword.arg is not None:
            out.append((keyword.arg, keyword.value))
    return out


def compute_summaries(graph: CallGraph) -> SummaryTable:
    """Build the summary table for one call graph."""
    return SummaryTable(graph)
