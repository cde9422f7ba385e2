"""The flow-sensitive rules RL007, RL009 and RL012, on cfg + dataflow.

Where RL001 and RL003–RL005 are single-pass AST matchers, these rules
state *path* properties: each runs a forward may-analysis
(:func:`repro.lint.dataflow.solve_forward`) over the CFG of each
function in scope and reports on what survives to an exit.  They are
:class:`~repro.lint.model.ProjectRule` subclasses: the CFGs are the ones
:class:`~repro.lint.summaries.SummaryTable` built once per function, and
RL007 uses nothing else of the project, while RL009 and RL012 also
consume the whole-program call graph and may-yield summaries.  The
lock lifecycle (RL006) is a protocol of the typestate layer
(:mod:`repro.lint.typestate`).
``docs/lint.md`` has the full catalogue entry, threat model and known
over/under-approximations of each rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from repro.lint.callgraph import FunctionDecl, FunctionId
from repro.lint.cfg import CFG, CFGNode, header_exprs
from repro.lint.dataflow import method_name_of, solve_forward
from repro.lint.model import (FileContext, ProjectRule, Violation,
                              register_rule)
from repro.lint.project import Project
from repro.lint.rules import (MUTATOR_METHODS, WATCHED_ATTRS, is_bump_stmt,
                              watched_mutations)
from repro.lint.summaries import SummaryTable, stmt_has_yield


# ---------------------------------------------------------------------------
# RL007 — unguarded reads of generation-guarded caches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CacheFamily:
    """One memo family: its cache fields and the guard that validates them.

    A *guard event* — calling one of ``guard_calls`` or touching one of
    ``guard_fields`` (comparing, testing or re-syncing the family's
    generation/flag) — certifies the family's fields until the next
    mutation.  Writing a cache field certifies that one field (a fresh
    recomputation is by definition current).
    """

    name: str
    fields: FrozenSet[str]
    guard_fields: FrozenSet[str]
    guard_calls: FrozenSet[str]


#: Guarded-memo families per module.  Fixtures impersonate these logical
#: paths to unit-test the rule.
RL007_FAMILIES: Dict[str, Tuple[CacheFamily, ...]] = {
    "repro/core/wtpg.py": (
        CacheFamily("topo-order",
                    fields=frozenset({"_topo_order", "_topo_pos"}),
                    guard_fields=frozenset({"_known_cyclic"}),
                    guard_calls=frozenset({"_ensure_topo"})),
        CacheFamily("closure",
                    fields=frozenset({"_anc_cache", "_desc_cache"}),
                    guard_fields=frozenset({"_closure_gen"}),
                    guard_calls=frozenset({"_closure_cache"})),
        CacheFamily("critical-path",
                    fields=frozenset({"_cp_dist", "_cp_value"}),
                    guard_fields=frozenset({"_cp_gen"}),
                    guard_calls=frozenset()),
    ),
    "repro/core/estimator.py": (
        CacheFamily("batch-base",
                    fields=frozenset({"_base_dist", "_base_cp",
                                      "_base_cyclic"}),
                    guard_fields=frozenset({"generation", "_generation"}),
                    guard_calls=frozenset({"_prime", "critical_path_length",
                                           "has_precedence_cycle"})),
    ),
    "repro/core/schedulers/kwtpg_scheduler.py": (
        CacheFamily("e-cache",
                    fields=frozenset({"_e_cache", "_e_steps"}),
                    guard_fields=frozenset(),
                    guard_calls=frozenset({"stale", "_invalidate"})),
    ),
    "repro/core/schedulers/chain_scheduler.py": (
        CacheFamily("w-order",
                    fields=frozenset({"_w_order"}),
                    guard_fields=frozenset(),
                    guard_calls=frozenset({"_refresh_w", "_force_refresh_w",
                                           "stale"})),
    ),
}

#: Methods whose whole job is to *maintain* a cache under a documented
#: precondition, so raw access is their contract, not a violation.
RL007_EXEMPT_METHODS: Dict[str, FrozenSet[str]] = {
    # _pk_insert's precondition is "_known_cyclic is False" at every call
    # site; cache_violations is paranoia mode — it compares the raw
    # caches against fresh recomputation by design.
    "repro/core/wtpg.py": frozenset({"_pk_insert", "cache_violations"}),
}


def _exempt_attr_loads(stmt: ast.AST) -> Set[int]:
    """ids of attribute nodes whose load is maintenance, not a read:
    roots of assignment/delete targets and receivers of in-place
    container-method calls (cache maintenance, not a guarded read)."""
    exempt: Set[int] = set()

    def mark_chain(node: ast.AST) -> None:
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            if isinstance(node, ast.Attribute):
                exempt.add(id(node))
            node = node.value

    for root in header_exprs(stmt):
        for node in ast.walk(root):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Tuple):
                        for element in target.elts:
                            mark_chain(element)
                    else:
                        mark_chain(target)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    mark_chain(target)
            elif isinstance(node, ast.Call):
                if (isinstance(node.func, ast.Attribute)
                        and node.func.attr in MUTATOR_METHODS):
                    mark_chain(node.func.value)
    return exempt


def _family_guards(stmt: ast.AST,
                   families: Sequence[CacheFamily]) -> Set[str]:
    """Names of the families a statement's guard events certify."""
    guarded: Set[str] = set()
    if is_bump_stmt(stmt):
        return guarded  # a generation bump invalidates, never certifies
    for root in header_exprs(stmt):
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                name = method_name_of(node)
                if name is None and isinstance(node.func, ast.Name):
                    name = node.func.id
                if name is not None:
                    for family in families:
                        if name in family.guard_calls:
                            guarded.add(family.name)
            elif isinstance(node, ast.Attribute):
                for family in families:
                    if node.attr in family.guard_fields:
                        guarded.add(family.name)
    return guarded


def _stored_fields(stmt: ast.AST,
                   families: Sequence[CacheFamily]) -> Set[str]:
    """Cache fields a statement (re)writes wholesale — fresh by definition."""
    stored: Set[str] = set()
    all_fields = {f for family in families for f in family.fields}
    if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr in all_fields:
                stored.add(target.attr)
    return stored


def _dirties(stmt: ast.AST) -> bool:
    """Does the node invalidate derived state (own mutation or bump)?"""
    return (any(m.on_self for m in watched_mutations(stmt))
            or is_bump_stmt(stmt))


@register_rule
class UnguardedCacheReadRule(ProjectRule):
    """RL007: memoized fields are read only behind their generation guard.

    Invariant 7's runtime check (:meth:`WTPG.cache_violations`) can only
    catch a stale cache *after* a bad read happened in a test run; this
    rule proves the protocol shape statically: on every path from a
    mutation (or from function entry — the graph may have changed in any
    earlier call) to a load of a memoized field, a guard event must
    intervene — calling the family's ensure/refresh helper, comparing or
    re-syncing its generation counter, or freshly writing the field.
    Stores and in-place maintenance calls on the cache containers are
    exempt; guard processing happens before read checks within one
    statement, so the idiomatic ``if self._gen == self._structure_gen
    and self._memo is not None`` is clean while the reversed form —
    reading the memo before comparing — is exactly what gets flagged.
    """

    rule_id = "RL007"
    summary = ("memoized WTPG/estimator/scheduler cache fields must not "
               "be read on a path without a generation-guard check")

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.logical in RL007_FAMILIES

    def check_project(self, ctx: FileContext,
                      project: Project) -> Iterator[Violation]:
        families = RL007_FAMILIES[ctx.logical]
        exempt = RL007_EXEMPT_METHODS.get(ctx.logical, frozenset())
        for decl in project.functions_of(ctx.logical):
            cfg = project.summaries.cfg(decl.fid)
            if cfg is not None and decl.name not in exempt:
                yield from self._check_function(ctx, decl.name, cfg,
                                                families)

    def _check_function(self, ctx: FileContext, name: str, cfg: CFG,
                        families: Sequence[CacheFamily],
                        ) -> Iterator[Violation]:
        by_name = {family.name: family for family in families}
        all_fields = frozenset(f for family in families
                               for f in family.fields)
        field_family = {f: family for family in families
                        for f in family.fields}

        def transfer(node: CFGNode,
                     dirty: FrozenSet[object]) -> FrozenSet[object]:
            stmt = node.stmt
            if stmt is None or not isinstance(stmt, ast.stmt):
                return dirty
            if _dirties(stmt):
                return all_fields
            for name in _family_guards(stmt, families):
                dirty = dirty - by_name[name].fields
            stored = _stored_fields(stmt, families)
            if stored:
                dirty = dirty - frozenset(stored)
            return dirty

        result = solve_forward(cfg, transfer, all_fields)
        reported: Set[Tuple[int, int, str]] = set()
        for node in cfg.stmt_nodes():
            stmt = node.stmt
            if stmt is None or not isinstance(stmt, ast.stmt):
                continue
            dirty = result.entering(node)
            for name in _family_guards(stmt, families):
                dirty = dirty - by_name[name].fields
            if not dirty:
                continue
            exempt_ids = _exempt_attr_loads(stmt)
            for root in header_exprs(stmt):
                for sub in ast.walk(root):
                    if not isinstance(sub, ast.Attribute):
                        continue
                    if not isinstance(sub.ctx, ast.Load):
                        continue
                    if sub.attr not in all_fields or sub.attr not in dirty:
                        continue
                    if id(sub) in exempt_ids:
                        continue
                    key = (sub.lineno, sub.col_offset, sub.attr)
                    if key in reported:
                        continue
                    reported.add(key)
                    family = field_family[sub.attr]
                    yield Violation(
                        self.rule_id, ctx.display, sub.lineno,
                        sub.col_offset,
                        f"read of {sub.attr} ({family.name} memo) in "
                        f"{name} on a path with no generation-guard "
                        "check since the last mutation: check the guard "
                        "(or refresh the memo) before reading — "
                        "invariant 7")


# ---------------------------------------------------------------------------
# RL009, RL012 — interprocedural yield-point atomicity rules
# ---------------------------------------------------------------------------
#
# Every ``yield`` in the machine layer is a context switch of the
# discrete-event engine: the scheduler, the WTPG and every other node
# may run before the function resumes.  These rules consume the project
# call graph + summaries, so "a yield two calls deep" counts.  Calls the
# resolver cannot prove anything about are soundly silent — docs/lint.md
# records that limit.


def _node_is_yield_point(table: SummaryTable, fid: FunctionId,
                         stmt: ast.AST) -> bool:
    """A syntactic yield, or a resolved call into a may-yield function."""
    if stmt_has_yield(stmt):
        return True
    return any(table.call_may_yield(site)
               for site in table.node_calls(fid, stmt))


def _function_has_yield_point(table: SummaryTable,
                              decl: FunctionDecl) -> bool:
    if decl.has_yield:
        return True
    return any(table.call_may_yield(site)
               for site in table.graph.call_sites(decl.fid))


#: Attributes whose value is *shared mutable simulation state*: the
#: scheduler/WTPG handles and the cross-coroutine node fields.  A local
#: bound from one of these is a snapshot that a context switch can
#: invalidate.  Deliberately absent: immutable plumbing (``env``,
#: ``params``, ``history``) and one-shot event handles (``_wakeup``).
RL009_SHARED_ATTRS: FrozenSet[str] = frozenset({
    "scheduler", "wtpg", "active_transactions", "_running", "_doomed",
    "_grants", "_queue", "_current", "crashed", "busy_time",
    "objects_processed", "messages_sent", "_slow_factors",
}) | WATCHED_ATTRS

#: Reading one of these re-validates snapshots: the code is comparing or
#: re-syncing a generation counter, which is the sanctioned alternative
#: to a full re-read.
RL009_GUARD_ATTRS: FrozenSet[str] = frozenset({
    "generation", "_generation", "_structure_gen", "_closure_gen",
    "_cp_gen",
})

#: Calling one of these is likewise a freshness re-check.
RL009_GUARD_CALLS: FrozenSet[str] = frozenset({"stale"})


@dataclass(frozen=True)
class _SnapFact:
    """One local holding a snapshot of shared state: where it was bound,
    which shared attribute it came from, and whether a yield point has
    intervened since."""

    name: str
    line: int
    col: int
    attr: str
    stale: bool


def _shared_attrs_in(expr: ast.AST) -> List[str]:
    found: List[str] = []
    for node in ast.walk(expr):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr in RL009_SHARED_ATTRS):
            found.append(node.attr)
    return found


def _target_names(target: ast.AST) -> List[str]:
    return [node.id for node in ast.walk(target)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Store)]


def _stmt_binds(stmt: ast.AST) -> List[Tuple[str, ast.AST]]:
    """``(local name, value expression)`` pairs this CFG node binds."""
    out: List[Tuple[str, ast.AST]] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            out.extend((name, stmt.value)
                       for name in _target_names(target))
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        out.extend((name, stmt.value)
                   for name in _target_names(stmt.target))
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        out.extend((name, stmt.iter)
                   for name in _target_names(stmt.target))
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                out.extend((name, item.context_expr)
                           for name in _target_names(item.optional_vars))
    # Walrus bindings live inside any header expression.
    for root in header_exprs(stmt):
        for node in ast.walk(root):
            if (isinstance(node, ast.NamedExpr)
                    and isinstance(node.target, ast.Name)):
                out.append((node.target.id, node.value))
    return out


def _stmt_recertifies(stmt: ast.AST) -> bool:
    """Does this node perform a generation re-check (guard event)?"""
    for root in header_exprs(stmt):
        for node in ast.walk(root):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and node.attr in RL009_GUARD_ATTRS):
                return True
            if isinstance(node, ast.Call):
                name = method_name_of(node)
                if name is None and isinstance(node.func, ast.Name):
                    name = node.func.id
                if name in RL009_GUARD_CALLS:
                    return True
    return False


@register_rule
class StaleSnapshotRule(ProjectRule):
    """RL009: a shared-state snapshot must not be read across a yield.

    In ``machine/``, a local bound from scheduler/WTPG/node shared state
    (:data:`RL009_SHARED_ATTRS`) and read after a yield point — a
    syntactic ``yield``/``yield from`` or a resolved call into a
    may-yield function — is acting on a pre-switch snapshot: any other
    coroutine may have run in between.  The fix is to re-read the state,
    re-check a generation guard (:data:`RL009_GUARD_ATTRS`,
    :data:`RL009_GUARD_CALLS`), or rebind the local after the yield.
    One finding per snapshot (its textually first stale read), so a
    deliberate hold-across-yield needs exactly one justified
    suppression.  Calls into generator functions are treated as yield
    points even when the generator is only instantiated — conservative,
    but in this codebase generators are invoked via ``yield from`` or
    handed straight to ``env.process``.
    """

    rule_id = "RL009"
    summary = ("machine-layer locals snapshotting shared state must be "
               "re-read or generation-checked after a yield point")

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_dir("machine")

    def check_project(self, ctx: FileContext,
                      project: Project) -> Iterator[Violation]:
        table = project.summaries
        for decl in project.functions_of(ctx.logical):
            if not _function_has_yield_point(table, decl):
                continue
            cfg = table.cfg(decl.fid)
            if cfg is not None:
                yield from self._check_function(ctx, decl, cfg, table)

    def _check_function(self, ctx: FileContext, decl: FunctionDecl,
                        cfg: CFG, table: SummaryTable,
                        ) -> Iterator[Violation]:
        fid = decl.fid

        def transfer(node: CFGNode,
                     facts: FrozenSet[object]) -> FrozenSet[object]:
            stmt = node.stmt
            if stmt is None or not isinstance(stmt, ast.stmt):
                return facts
            if _stmt_recertifies(stmt):
                facts = frozenset(replace(fact, stale=False)
                                  for fact in facts
                                  if isinstance(fact, _SnapFact))
            if _node_is_yield_point(table, fid, stmt):
                facts = frozenset(replace(fact, stale=True)
                                  for fact in facts
                                  if isinstance(fact, _SnapFact))
            binds = _stmt_binds(stmt)
            if binds:
                killed = {name for name, _ in binds}
                facts = frozenset(fact for fact in facts
                                  if isinstance(fact, _SnapFact)
                                  and fact.name not in killed)
                gens: Set[object] = set()
                for name, value in binds:
                    attrs = _shared_attrs_in(value)
                    if attrs:
                        gens.add(_SnapFact(name, stmt.lineno,
                                           stmt.col_offset,
                                           sorted(attrs)[0], False))
                facts = facts | frozenset(gens)
            return facts

        result = solve_forward(cfg, transfer, frozenset())
        # One finding per snapshot: its textually first stale read.
        first_read: Dict[Tuple[str, int, int],
                         Tuple[int, int, _SnapFact]] = {}
        for node in cfg.stmt_nodes():
            stmt = node.stmt
            if stmt is None or not isinstance(stmt, ast.stmt):
                continue
            facts = result.entering(node)
            if _stmt_recertifies(stmt):
                continue  # guards run before reads within one statement
            stale = {fact.name: fact for fact in facts
                     if isinstance(fact, _SnapFact) and fact.stale}
            if not stale:
                continue
            for root in header_exprs(stmt):
                for sub in ast.walk(root):
                    if (not isinstance(sub, ast.Name)
                            or not isinstance(sub.ctx, ast.Load)
                            or sub.id not in stale):
                        continue
                    fact = stale[sub.id]
                    key = (fact.name, fact.line, fact.col)
                    site = (sub.lineno, sub.col_offset, fact)
                    if key not in first_read or site < first_read[key]:
                        first_read[key] = site
        for line, col, fact in sorted(first_read.values()):
            yield Violation(
                self.rule_id, ctx.display, line, col,
                f"local {fact.name!r} in {decl.name} snapshots shared "
                f"state ({fact.attr}, bound at line {fact.line}) and is "
                "read here after a yield point: a context switch may "
                "have invalidated it — re-read the state or re-check a "
                "generation guard before acting on it")


@register_rule
class SynchronousSchedulerRule(ProjectRule):
    """RL012: scheduler code never reaches a cooperative suspension.

    Every scheduler entry point (``admit``, ``request_lock``,
    ``abort_transaction``, …) runs inside one atomic step of the control
    node's event loop — the paper's admission protocol assumes the WTPG
    test-and-insert is indivisible.  Today ``core/schedulers/`` contains
    zero yields by convention; this rule makes it a contract: no
    function there may contain a ``yield`` or call (transitively,
    through the resolved call graph) a may-yield function.  Calls the
    resolver must treat as unknown are silent — the rule's teeth come
    from the project graph, not from guessing.
    """

    rule_id = "RL012"
    summary = ("core/schedulers/ must stay synchronous: no yield and no "
               "resolved call path into a may-yield function")

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_dir("core/schedulers")

    def check_project(self, ctx: FileContext,
                      project: Project) -> Iterator[Violation]:
        table = project.summaries
        for decl in project.functions_of(ctx.logical):
            if decl.has_yield:
                node = self._first_yield(decl)
                yield Violation(
                    self.rule_id, ctx.display,
                    getattr(node, "lineno", decl.node.lineno),
                    getattr(node, "col_offset", decl.node.col_offset),
                    f"scheduler function {decl.name} contains a yield: "
                    "schedulers run inside one atomic step of the "
                    "control node — suspension here breaks admission "
                    "atomicity; hoist the wait into the machine layer")
            for site in project.callgraph.call_sites(decl.fid):
                if (site.callee is not None
                        and table.summary(site.callee).may_yield):
                    yield Violation(
                        self.rule_id, ctx.display, site.line, site.col,
                        f"call from scheduler function {decl.name} "
                        f"reaches may-yield {site.callee[1]}: schedulers "
                        "must stay synchronous — move the cooperative "
                        "wait out of core/schedulers/")

    @staticmethod
    def _first_yield(decl: FunctionDecl) -> ast.AST:
        for node in ast.walk(decl.node):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return node
        return decl.node
