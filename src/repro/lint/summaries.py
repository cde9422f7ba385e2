"""Bottom-up function summaries over the project call graph.

Each function gets a :class:`FunctionSummary` of the facts the
interprocedural rules consume:

``may_yield``
    The body contains a ``yield``/``yield from``, or calls (through the
    resolved call graph) a function that may yield.  This is what makes
    a call a *context switch* for RL009/RL010 and what RL012 forbids
    reaching from ``core/schedulers/``.

``mutates_watched``
    The watched graph-defining WTPG containers (:data:`WATCHED_ATTRS`)
    this function may mutate, directly or through a callee.

``may_leave_unbumped``
    Some path through the function performs a watched mutation and
    reaches a ``return``/the exit without a generation bump
    (:func:`unbumped_transfer`), used by RL010 to treat such a *call*
    as an open mutation at the call site.

``must_bump``
    Every path from entry to the normal exit passes a generation bump
    (a direct bump statement, an invalidation helper, or a call to a
    ``must_bump`` callee) — the kill event of RL010's analysis.

All summaries are computed as one whole-program fixpoint: per-function
facts are (re)derived from a CFG dataflow pass parameterised by the
current callee summaries, and the pass repeats until nothing changes.
Every component is monotone (booleans only flip ``False -> True``,
sets only grow), so mutual recursion converges; a hard round cap turns
an accidental non-monotone edit into a loud :class:`FixpointError`.
Unresolved calls contribute nothing — the summaries describe only what
the resolved project graph can prove, and the rules document that
limit.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.lint.callgraph import (CallGraph, CallSite, FunctionDecl,
                                  FunctionId)
from repro.lint.cfg import CFG, CFGNode, build_cfg, header_exprs
from repro.lint.dataflow import FixpointError, Transfer, solve_forward


@dataclass(frozen=True)
class FunctionSummary:
    """The interprocedural facts of one function (see module docstring)."""

    may_yield: bool = False
    mutates_watched: FrozenSet[str] = frozenset()
    may_leave_unbumped: bool = False
    must_bump: bool = False


def _param_names(fn: ast.AST) -> List[str]:
    args = getattr(fn, "args", None)
    if args is None:
        return []
    return [arg.arg for arg in (list(args.posonlyargs) + list(args.args)
                                + list(args.kwonlyargs))]


# ---------------------------------------------------------------------------
# Watched-state mutations and generation bumps (static invariant 7)
# ---------------------------------------------------------------------------
#
# The incremental topological order, closure memos and critical-path
# dist cache of :class:`repro.core.wtpg.WTPG` may trust their generation
# guards only because every mutation of the graph-defining containers
# bumps ``_generation`` / ``_structure_gen`` (directly or through an
# invalidation helper) — the static counterpart of
# :meth:`~repro.core.wtpg.WTPG.cache_violations`.  The containers are
# recognised through any receiver: ``wtpg._pairs[k] = v`` in a
# machine-layer helper is the same incoherence hazard as ``self._pairs``.

#: The graph-defining containers of WTPG.  Anything else (``_cp_dist``,
#: ``_topo_order``, the closure caches…) is *derived* state guarded by
#: the generations these mutations must bump.
WATCHED_ATTRS = frozenset({
    "_source", "_sink", "_pairs", "_neighbors", "_succ", "_pred",
    "_unresolved",
})

#: Statements that count as invalidation: bumping a generation counter or
#: calling a helper that does.
BUMP_ATTRS = frozenset({"_generation", "_structure_gen"})
INVALIDATION_HELPERS = frozenset({"_note_edge_weight", "_invalidate_caches"})

_MUTATOR_METHODS = frozenset({
    "add", "discard", "remove", "pop", "popitem", "clear", "update",
    "setdefault", "append", "extend", "insert",
})


@dataclass(frozen=True, order=True)
class OpenMutation:
    """One watched-state mutation no generation bump has closed yet.

    ``what`` is the watched attribute, or ``"<callee>()"`` for a call
    whose summary is *may-leave-unbumped*.  ``on_self`` marks a direct
    ``self.<watched>`` mutation — the WTPG's own write barrier, as
    opposed to filling some other graph (``WTPG.copy`` fills a fresh
    clone).  ``returned`` marks a fact that has passed a ``return``,
    where RL010 already reported it.
    """

    line: int
    col: int
    what: str
    on_self: bool = False
    returned: bool = False


def _watched_target(node: ast.AST) -> Optional[Tuple[str, bool]]:
    """(watched attr, rooted at ``self``?) of a target chain, any receiver."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in WATCHED_ATTRS:
        on_self = (isinstance(node.value, ast.Name)
                   and node.value.id == "self")
        return node.attr, on_self
    return None


def watched_mutations(stmt: ast.AST) -> List[OpenMutation]:
    """Watched-container mutations evaluated by one CFG node."""
    found: List[OpenMutation] = []

    def note(site: Union[ast.stmt, ast.expr], target: ast.AST) -> None:
        watched = _watched_target(target)
        if watched is not None:
            found.append(OpenMutation(site.lineno, site.col_offset,
                                      watched[0], watched[1]))

    for root in header_exprs(stmt):
        for node in ast.walk(root):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target]):
                    note(node, target)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    note(node, target)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATOR_METHODS):
                note(node, node.func.value)
    return found


def is_bump_stmt(stmt: ast.AST) -> bool:
    """A generation bump through any receiver, incl. invalidation helpers."""
    for root in header_exprs(stmt):
        for node in ast.walk(root):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and target.attr in BUMP_ATTRS):
                        return True
            elif isinstance(node, ast.Call):
                func = node.func
                name = (func.attr if isinstance(func, ast.Attribute)
                        else func.id if isinstance(func, ast.Name) else "")
                if name in INVALIDATION_HELPERS:
                    return True
    return False


# ---------------------------------------------------------------------------
# Yield points
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# The whole-program fixpoint
# ---------------------------------------------------------------------------

class SummaryTable:
    """Summaries for every function of a call graph, plus shared CFGs."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.summaries: Dict[FunctionId, FunctionSummary] = {}
        #: CFGs are rebuilt nowhere else — the rules reuse these.
        self._cfgs: Dict[FunctionId, CFG] = {}
        self._site_index: Dict[FunctionId, Dict[int, CallSite]] = {}
        self._compute()

    def summary(self, fid: FunctionId) -> FunctionSummary:
        return self.summaries.get(fid, FunctionSummary())

    def cfg(self, fid: FunctionId) -> Optional[CFG]:
        return self._cfgs.get(fid)

    def call_may_yield(self, site: CallSite) -> bool:
        """Does this (resolved) call target a may-yield function?"""
        if site.callee is None:
            return False
        return self.summary(site.callee).may_yield

    # -- computation -------------------------------------------------------

    def _compute(self) -> None:
        graph = self.graph
        for fid, decl in graph.functions.items():
            self._cfgs[fid] = build_cfg(decl.node)
            self.summaries[fid] = FunctionSummary(
                may_yield=decl.has_yield)
        # Reverse edges: when a callee's summary changes, only its
        # callers can change in response.
        callers: Dict[FunctionId, Set[FunctionId]] = {}
        for fid in graph.functions:
            for callee in graph.callees(fid):
                callers.setdefault(callee, set()).add(fid)
        # Initial pass in declaration order, then a worklist to a
        # fixpoint.  Every summary component is monotone (booleans flip
        # only False->True, sets only grow), so mutual recursion
        # converges; the cap catches a non-monotone edit loudly.
        worklist = list(graph.functions)
        queued = set(worklist)
        budget = max(64, 16 * len(graph.functions))
        while worklist:
            budget -= 1
            if budget < 0:
                raise FixpointError(
                    "function summaries did not converge: a summary "
                    "component is not monotone")
            fid = worklist.pop(0)
            queued.discard(fid)
            decl = graph.functions[fid]
            updated = self._summarise(fid, decl)
            if updated != self.summaries[fid]:
                self.summaries[fid] = updated
                for caller in sorted(callers.get(fid, ())):
                    if caller not in queued:
                        worklist.append(caller)
                        queued.add(caller)

    def _summarise(self, fid: FunctionId,
                   decl: FunctionDecl) -> FunctionSummary:
        graph = self.graph
        sites = graph.call_sites(fid)
        may_yield = decl.has_yield or any(
            self.summary(site.callee).may_yield
            for site in sites if site.callee is not None)

        mutates: Set[str] = set()
        for stmt in ast.walk(decl.node):
            if isinstance(stmt, ast.stmt):
                mutates.update(m.what for m in watched_mutations(stmt))
        for site in sites:
            if site.callee is not None:
                mutates.update(self.summary(site.callee).mutates_watched)

        cfg = self._cfgs[fid]
        must_bump = self._must_bump(fid, decl, cfg)
        may_leave_unbumped = (bool(mutates)
                              and self._may_leave_unbumped(fid, decl, cfg))
        return FunctionSummary(
            may_yield=may_yield,
            mutates_watched=frozenset(mutates),
            may_leave_unbumped=may_leave_unbumped,
            must_bump=must_bump,
        )

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

    def bumps_here(self, fid: FunctionId, stmt: ast.AST) -> bool:
        if is_bump_stmt(stmt):
            return True
        for site in self.node_calls(fid, stmt):
            if (site.callee is not None
                    and self.summary(site.callee).must_bump):
                return True
        return False

    def _must_bump(self, fid: FunctionId, decl: FunctionDecl,
                   cfg: CFG) -> bool:
        """True iff every entry->exit path passes a bump.

        Implemented as a may-analysis of the *absence* of a bump: seed
        a token at entry, kill it at bump statements; if the token can
        reach the normal exit (or a return), some path never bumped.
        """
        token = frozenset({"no-bump-yet"})

        def transfer(node: CFGNode,
                     value: FrozenSet[object]) -> FrozenSet[object]:
            stmt = node.stmt
            if stmt is None or not isinstance(stmt, ast.stmt):
                return value
            if self.bumps_here(fid, stmt):
                return frozenset()
            return value

        result = solve_forward(cfg, transfer, token)
        if result.entering(cfg.exit):
            return False
        for node in cfg.stmt_nodes():
            if (isinstance(node.stmt, ast.Return)
                    and result.entering(node)):
                return False
        return True

    def _may_leave_unbumped(self, fid: FunctionId, decl: FunctionDecl,
                            cfg: CFG) -> bool:
        """Some path mutates watched state and exits without a bump."""
        result = solve_forward(cfg, unbumped_transfer(self, fid),
                               frozenset())
        if result.entering(cfg.exit):
            return True
        return any(isinstance(node.stmt, ast.Return)
                   and result.entering(node)
                   for node in cfg.stmt_nodes())


def unbumped_transfer(table: SummaryTable,
                      fid: FunctionId) -> Transfer:
    """The open-mutation may-analysis of one function (invariant 7).

    Facts are :class:`OpenMutation` s.  A generation bump — direct,
    through an invalidation helper, or a call to a *must-bump* callee —
    kills every open fact; a watched mutation, or a call into a
    *may-leave-unbumped* callee, opens one.  A ``return`` marks the facts
    entering it ``returned`` (RL010 reports them at the return), so an
    inlined ``finally`` on the return path does not report them again at
    the exit.  This one transfer serves the ``may_leave_unbumped``
    summary and both RL010 checks.
    """
    def transfer(node: CFGNode,
                 facts: FrozenSet[object]) -> FrozenSet[object]:
        stmt = node.stmt
        if stmt is None or not isinstance(stmt, ast.stmt):
            return facts
        if table.bumps_here(fid, stmt):
            facts = frozenset()
        if isinstance(stmt, ast.Return):
            facts = frozenset(replace(fact, returned=True) for fact in facts
                              if isinstance(fact, OpenMutation))
        gens = watched_mutations(stmt)
        for site in table.node_calls(fid, stmt):
            if (site.callee is not None
                    and table.summary(site.callee).may_leave_unbumped):
                gens.append(OpenMutation(site.line, site.col,
                                         f"{site.callee[1]}()"))
        return facts | frozenset(gens) if gens else facts
    return transfer


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
