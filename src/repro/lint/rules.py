"""The single-pass AST rules RL001 and RL003–RL005.

Each rule encodes a contract the runtime invariant suite or reviewer
discipline used to carry alone; ``docs/lint.md`` ties every rule to the
paper / PR-1 design decision it protects.  The watched-state vocabulary
of RL003 (:data:`WATCHED_ATTRS`, :func:`watched_mutations`,
:func:`is_bump_stmt`) is shared with the flow rules RL007 and RL009.
"""

from __future__ import annotations

import ast
import re
from typing import (Dict, FrozenSet, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from repro.lint.cfg import header_exprs
from repro.lint.model import (FileContext, Rule, Violation, dotted_name,
                              register_rule)

# ---------------------------------------------------------------------------
# RL001 — determinism
# ---------------------------------------------------------------------------

#: The only module allowed to touch ambient randomness: it derives named,
#: seeded substreams for everything else.
RNG_MODULES = frozenset({"repro/engine/rng.py"})

#: Where a :class:`~repro.engine.rng.RandomStreams` may be built: the
#: enclosing function of each owner module.  Every other consumer takes
#: the run's streams as a parameter.
RNG_OWNERS: Dict[str, str] = {
    "repro/machine/cluster.py": "Cluster.__init__",
    "repro/workloads/tracefile.py": "record_workload",
}

#: The private state of RandomStreams: reading either hands out a
#: generator, which would let it escape the named-draw discipline.
_RNG_PRIVATE = frozenset({"_stream", "_streams"})

#: Importing these modules is the gateway to nondeterminism.
_BANNED_IMPORTS = frozenset({"random", "secrets"})

#: Wall-clock / entropy calls that make a run irreproducible.  Matched as
#: dotted-name suffixes, so ``datetime.datetime.now`` is caught too.
_BANNED_CALLS = (
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
)

#: Consumers whose result does not depend on iteration order; a set-typed
#: comprehension feeding one of these is deterministic by construction.
_ORDER_INSENSITIVE = frozenset({
    "sorted", "sum", "max", "min", "set", "frozenset", "any", "all",
    "len", "heapify",
})

_SET_METHODS = frozenset({
    "intersection", "union", "difference", "symmetric_difference", "keys",
})


def _is_unordered_expr(node: ast.AST) -> bool:
    """Syntactically certain to produce a hash-ordered container."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in (
                "set", "frozenset"):
            return True
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)):
        # Only certain when an operand is itself visibly a set; a bare
        # ``a | b`` of two names could be integers.
        return _is_unordered_expr(node.left) or _is_unordered_expr(node.right)
    return False


def _enclosing_def(ctx: FileContext, node: ast.AST) -> Optional[str]:
    """Qualified name of the function around ``node``; None at module
    or class scope."""
    names: List[str] = []
    in_function = False
    while node is not ctx.tree:
        node = ctx.parent(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_function = True
            names.append(node.name)
        elif isinstance(node, ast.ClassDef):
            names.append(node.name)
    return ".".join(reversed(names)) if in_function else None


@register_rule
class DeterminismRule(Rule):
    """RL001: randomness/clocks only via engine/rng.py; ordered iteration.

    The simulator's claim to bit-reproducibility (same seed, same
    schedule — the property every PR-1 equivalence test rests on) holds
    only while (a) every random draw flows through the named streams of
    :mod:`repro.engine.rng` and (b) no scheduling decision consumes a
    hash-ordered iteration.  For (a), outside ``engine/rng.py`` the rule
    bans ``random``/``secrets`` imports, wall-clock calls, any
    ``_stream``/``_streams`` attribute access (the only ways to get a
    generator out of :class:`~repro.engine.rng.RandomStreams`) and any
    ``RandomStreams(...)`` construction outside :data:`RNG_OWNERS`, at
    module and class scope too.  So no code can hold a generator, and
    every draw is a named one.  The iteration check is syntactic and
    conservative: it flags loops whose iterable is *visibly* a set
    expression, in ``core/`` and ``engine/`` only, and exempts
    comprehensions consumed by order-insensitive reducers.
    """

    rule_id = "RL001"
    summary = ("no ambient randomness/clocks, RandomStreams internals or "
               "stray RandomStreams outside engine/rng.py; no "
               "unordered-set iteration in core/ and engine/")

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.logical not in RNG_MODULES

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        check_iteration = ctx.in_dir("core") or ctx.in_dir("engine")
        for node in ast.walk(ctx.tree):
            yield from self._check_imports(ctx, node)
            yield from self._check_calls(ctx, node)
            yield from self._check_rng_access(ctx, node)
            if check_iteration:
                yield from self._check_iteration(ctx, node)

    def _check_imports(self, ctx: FileContext,
                       node: ast.AST) -> Iterator[Violation]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _BANNED_IMPORTS:
                    yield self.violation(
                        ctx, node,
                        f"import of {alias.name!r}: draw randomness from "
                        "repro.engine.rng.RandomStreams instead")
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in _BANNED_IMPORTS:
                yield self.violation(
                    ctx, node,
                    f"import from {node.module!r}: draw randomness from "
                    "repro.engine.rng.RandomStreams instead")

    def _check_calls(self, ctx: FileContext,
                     node: ast.AST) -> Iterator[Violation]:
        if not isinstance(node, ast.Call):
            return
        dotted = dotted_name(node.func)
        if not dotted:
            return
        for banned in _BANNED_CALLS:
            if dotted == banned or dotted.endswith("." + banned):
                yield self.violation(
                    ctx, node,
                    f"call to {dotted}(): wall-clock/entropy breaks "
                    "seeded reproducibility — use simulation time or a "
                    "named RandomStreams stream")
                return

    def _check_rng_access(self, ctx: FileContext,
                       node: ast.AST) -> Iterator[Violation]:
        if isinstance(node, ast.Attribute) and node.attr in _RNG_PRIVATE:
            yield self.violation(
                ctx, node,
                f"access to RandomStreams.{node.attr} outside "
                "engine/rng.py: draw through a named method "
                "(streams.random(name), streams.randint(name, ...)) so "
                "no generator leaves rng.py")
        elif (isinstance(node, ast.Call)
                and dotted_name(node.func).split(".")[-1] == "RandomStreams"
                # None (module/class scope) never matches an owner.
                and _enclosing_def(ctx, node)
                != RNG_OWNERS.get(ctx.logical, "")):
            yield self.violation(
                ctx, node,
                "RandomStreams constructed outside its owners "
                f"({', '.join(sorted(RNG_OWNERS.values()))}): take the "
                "run's streams as a parameter instead")

    def _check_iteration(self, ctx: FileContext,
                         node: ast.AST) -> Iterator[Violation]:
        if isinstance(node, ast.For):
            if _is_unordered_expr(node.iter):
                yield self.violation(
                    ctx, node.iter,
                    "iteration over an unordered set expression: wrap in "
                    "sorted() or keep an insertion-ordered index "
                    "(dict-as-ordered-set)")
        elif isinstance(node, (ast.GeneratorExp, ast.ListComp)):
            parent = ctx.parent(node)
            if (isinstance(parent, ast.Call)
                    and isinstance(parent.func, ast.Name)
                    and parent.func.id in _ORDER_INSENSITIVE):
                return
            for comp in node.generators:
                if _is_unordered_expr(comp.iter):
                    yield self.violation(
                        ctx, comp.iter,
                        "comprehension over an unordered set expression "
                        "feeds an order-sensitive consumer: wrap in sorted()")


# ---------------------------------------------------------------------------
# RL003 — WTPG encapsulation and the bump-first write barrier
# ---------------------------------------------------------------------------

#: Friend-module allowlist.  The overlay estimator reads (never writes)
#: exactly these private structures for its copy-free delta evaluation;
#: each entry is justified in docs/lint.md.
RL003_ATTR_ALLOWLIST: Dict[str, FrozenSet[str]] = {
    "repro/core/estimator.py": frozenset({
        "_cp_dist",   # cached base dist table primed via critical_path_length
        "_succ",      # live precedence adjacency (read-only overlay base)
        "_pred",
        "_source",    # node weights for the affected-suffix dist DP
        "_sink",
        "_neighbors",  # per-node pair edges: edge weights for the dist DP
        "_unresolved",  # the unresolved edges, walked in place in Step 2
    }),
}

#: Private names importable from repro.core.wtpg, per friend module.
RL003_IMPORT_ALLOWLIST: Dict[str, FrozenSet[str]] = {}

#: The graph-defining containers of WTPG.  Anything else (``_cp_dist``,
#: ``_topo_order``, the closure caches…) is *derived* state guarded by
#: the generation counters every write to these must bump first.  They
#: are recognised through any receiver: ``wtpg._pairs[k] = v`` in a
#: helper is the same incoherence hazard as ``self._pairs[k] = v``.
WATCHED_ATTRS = frozenset({
    "_source", "_sink", "_pairs", "_neighbors", "_succ", "_pred",
    "_unresolved",
})

#: An engine event's trigger state.  Only ``engine/core.py`` writes it:
#: ``succeed()``/``fail()`` raise ``EngineStateError`` on a second
#: trigger, and a direct write would bypass that guard.
EVENT_ATTRS = frozenset({"_value", "_defused"})

#: A bump statement assigns one of these counters or calls the helper
#: that bumps ``_generation`` for a raised pair-edge weight.
BUMP_ATTRS = frozenset({"_generation", "_structure_gen"})
INVALIDATION_HELPERS = frozenset({"_note_edge_weight"})

#: Container methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "add", "append", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "setdefault", "update",
})

#: Packages whose import would let core/wtpg.py suspend mid-mutation.
_SUSPENDING_PACKAGES = ("repro.engine", "repro.machine")


class WatchedWrite(NamedTuple):
    """One write to a watched container: where, which, and whether the
    receiver is ``self`` (the WTPG's own write barrier, as opposed to
    filling some other graph, as ``WTPG.copy`` fills a fresh clone)."""

    line: int
    col: int
    what: str
    on_self: bool


def _watched_target(node: ast.AST,
                    attrs: FrozenSet[str]) -> Optional[Tuple[str, bool]]:
    """(watched attr, rooted at ``self``?) of a target chain, any receiver."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in attrs:
        on_self = (isinstance(node.value, ast.Name)
                   and node.value.id == "self")
        return node.attr, on_self
    return None


#: The node types :func:`_writes_at` can find a write in.
_WRITE_NODES: FrozenSet[type] = frozenset({
    ast.Assign, ast.Delete, ast.AugAssign, ast.AnnAssign, ast.Call})


def _writes_at(node: ast.AST,
               attrs: FrozenSet[str] = WATCHED_ATTRS) -> List[WatchedWrite]:
    """The writes to ``attrs`` one AST node performs itself (not its
    children): assignment and ``del`` targets, and in-place mutator
    calls."""
    if isinstance(node, ast.Call):
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in MUTATOR_METHODS):
            return []
        targets: List[ast.expr] = [func.value]
    elif isinstance(node, (ast.Assign, ast.Delete)):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    writes: List[WatchedWrite] = []
    for target in targets:
        elements = (target.elts if isinstance(target, (ast.Tuple, ast.List))
                    else [target])
        for element in elements:
            watched = _watched_target(element, attrs)
            if watched is not None:
                what, on_self = watched
                writes.append(WatchedWrite(node.lineno, node.col_offset,
                                           what, on_self))
    return writes


def watched_mutations(stmt: ast.AST) -> List[WatchedWrite]:
    """Watched writes evaluated by one statement's own header (a compound
    statement's nested blocks are not included, see ``header_exprs``)."""
    return [write for root in header_exprs(stmt)
            for node in ast.walk(root) for write in _writes_at(node)]


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


def _blocks(stmt: ast.AST) -> Iterator[Tuple[bool, Sequence[ast.AST]]]:
    """The nested statement blocks of a compound statement, each with
    whether it starts a new scope (a nested ``def``/``class`` body runs
    later, so no bump before it counts inside it)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        yield True, stmt.body
        return
    for name in ("body", "orelse", "finalbody"):
        block = getattr(stmt, name, None)
        if isinstance(block, list):
            yield False, block
    for handler in getattr(stmt, "handlers", ()):
        yield False, [handler]


def _unbumped_writes(block: Sequence[ast.AST],
                     bumped: bool) -> Iterator[WatchedWrite]:
    """``self``-rooted watched writes in ``block`` not preceded by a bump
    statement in their own block or an enclosing one."""
    for stmt in block:
        if not bumped:
            yield from (write for write in watched_mutations(stmt)
                        if write.on_self)
        bumped = bumped or is_bump_stmt(stmt)
        for new_scope, nested in _blocks(stmt):
            yield from _unbumped_writes(nested, bumped and not new_scope)


def _imported_modules(ctx: FileContext,
                      node: Union[ast.Import, ast.ImportFrom]) -> List[str]:
    """Absolute dotted names an import statement may bind: each module
    of an ``import``; for ``from M import a`` both ``M`` and ``M.a``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    parts = ctx.logical.split("/")[:-node.level] if node.level else []
    base = ".".join(parts + ([node.module] if node.module else []))
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def _is_wtpg_expr(node: ast.AST) -> bool:
    """Does this expression (very likely) evaluate to a WTPG?

    Matches the naming conventions of the codebase: local/param names
    ``wtpg``/``*_wtpg``/``graph`` and attribute chains ending ``.wtpg``.
    """
    if isinstance(node, ast.Name):
        name = node.id.lower()
        return name == "wtpg" or name.endswith("_wtpg") or name == "graph"
    if isinstance(node, ast.Attribute):
        return node.attr == "wtpg"
    return False


@register_rule
class EncapsulationRule(Rule):
    """RL003: WTPG state stays inside core/wtpg.py, which bumps first;
    an engine event's trigger state stays inside engine/core.py.

    The WTPG's caches (incremental topological order, closure memos,
    critical-path dist) trust their generation guards only while every
    write to a graph-defining container (:data:`WATCHED_ATTRS`) bumps a
    counter.  Single-pass checks keep that true by construction:

    * outside ``core/wtpg.py``, no ``wtpg._*`` access except the
      estimator's allowlisted reads;
    * outside ``core/wtpg.py``, no watched write through any receiver,
      so the estimator's allowlist is read-only;
    * in ``core/wtpg.py``, every ``self``-rooted watched write of a
      ``WTPG`` method other than ``__init__`` follows a bump statement
      in its own block or an enclosing one;
    * ``core/wtpg.py`` contains no ``yield``/``await`` and imports
      nothing from ``repro.engine`` or ``repro.machine``, so no other
      coroutine can run between a bump and the writes it covers;
    * outside ``engine/core.py``, no write to an event's
      :data:`EVENT_ATTRS` through any receiver.
    """

    rule_id = "RL003"
    summary = ("WTPG state stays in core/wtpg.py (read-only estimator "
               "allowlist), whose methods bump the generation before "
               "they write and never suspend; Event ._value/._defused "
               "are written only in engine/core.py")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.is_module("repro/core/wtpg.py"):
            yield from self._check_wtpg(ctx)
            return
        event_barrier = not ctx.is_module("repro/engine/core.py")
        allowed_attrs = RL003_ATTR_ALLOWLIST.get(ctx.logical, frozenset())
        allowed_imports = RL003_IMPORT_ALLOWLIST.get(ctx.logical, frozenset())
        for node in ast.walk(ctx.tree):
            if type(node) in _WRITE_NODES:
                for write in _writes_at(node):
                    yield Violation(
                        self.rule_id, ctx.display, write.line, write.col,
                        f"write to WTPG container {write.what!r} outside "
                        "core/wtpg.py: the graph changes only through "
                        "WTPG methods, which bump the generation first")
                if event_barrier:
                    yield from self._event_writes(ctx, node)
            if isinstance(node, ast.Attribute):
                if (node.attr.startswith("_")
                        and not node.attr.startswith("__")
                        and _is_wtpg_expr(node.value)
                        and node.attr not in allowed_attrs):
                    yield self.violation(
                        ctx, node,
                        f"access to WTPG private attribute {node.attr!r} "
                        "outside core/wtpg.py: use the public API or extend "
                        "the RL003 allowlist with a documented rationale")
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").endswith("core.wtpg"):
                    for alias in node.names:
                        if (alias.name.startswith("_")
                                and alias.name not in allowed_imports):
                            yield self.violation(
                                ctx, node,
                                f"import of private {alias.name!r} from "
                                "repro.core.wtpg: use the public API or "
                                "extend the RL003 allowlist")

    def _event_writes(self, ctx: FileContext,
                      node: ast.AST) -> Iterator[Violation]:
        """The engine Event write barrier at one node of a module other
        than ``engine/core.py``."""
        for write in _writes_at(node, EVENT_ATTRS):
            yield Violation(
                self.rule_id, ctx.display, write.line, write.col,
                f"write to engine Event field {write.what!r} outside "
                "engine/core.py: trigger through succeed()/fail(), whose "
                "single-trigger guard a direct write bypasses")

    def _check_wtpg(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if type(node) in _WRITE_NODES:
                yield from self._event_writes(ctx, node)
            if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
                yield self.violation(
                    ctx, node,
                    "suspension point in core/wtpg.py: WTPG methods run "
                    "to completion, which is what lets them bump the "
                    "generation before writing")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for module in _imported_modules(ctx, node):
                    if any(module == package or module.startswith(package + ".")
                           for package in _SUSPENDING_PACKAGES):
                        yield self.violation(
                            ctx, node,
                            f"import of {module} in core/wtpg.py: the WTPG "
                            "must not depend on the engine or machine "
                            "layers, where code can suspend")
                        break
        for cls in ctx.tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name == "WTPG"):
                continue
            for method in cls.body:
                if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and method.name != "__init__"):
                    for write in _unbumped_writes(method.body, False):
                        yield Violation(
                            self.rule_id, ctx.display, write.line, write.col,
                            f"WTPG.{method.name} writes self.{write.what} "
                            "before bumping the generation: put "
                            "self._generation / self._structure_gen += 1 "
                            "(or self._note_edge_weight) first, in this "
                            "block or an enclosing one")


# ---------------------------------------------------------------------------
# RL004 — float equality in scheduler code
# ---------------------------------------------------------------------------

#: snake_case tokens marking an identifier as a critical-path/weight float.
_FLOAT_TOKENS = frozenset({
    "cost", "costs", "weight", "weights", "dist", "crit", "critical",
    "peak", "due", "dues", "cp", "contention",
})

#: ``e``, ``e_q``, ``e_rival`` — the paper's estimator values.
_E_NAME = re.compile(r"^e(_[a-z0-9]+)?$")

#: Calls whose result is a critical-path/weight float.
_FLOAT_FUNCS = frozenset({
    "critical_path_length", "estimate", "estimate_contention",
    "source_weight", "weight_to", "due", "actual_due",
    "chain_critical_path",
})

#: Comparisons against the IEEE infinity sentinel are exact and sanctioned.
_INF_NAMES = frozenset({"INFINITE_CONTENTION", "inf"})


def _float_identifier(name: str) -> bool:
    lowered = name.lower()
    if _E_NAME.match(lowered):
        return True
    return any(token in _FLOAT_TOKENS for token in lowered.split("_"))


def _is_float_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return _float_identifier(node.id)
    if isinstance(node, ast.Attribute):
        return _float_identifier(node.attr)
    if isinstance(node, ast.Call):
        func = node.func
        terminal = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else "")
        return terminal in _FLOAT_FUNCS
    return False


def _is_inf_sentinel(node: ast.AST) -> bool:
    if isinstance(node, ast.Name) and node.id in _INF_NAMES:
        return True
    if isinstance(node, ast.Attribute) and node.attr in _INF_NAMES:
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float" and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "inf"):
        return True
    return False


@register_rule
class FloatEqualityRule(Rule):
    """RL004: no ``==``/``!=`` between weight/critical-path floats.

    The exact-float equivalence of the overlay and reference estimators
    is a *tested contract* (tests/core/test_estimator_equivalence.py),
    not a licence for ad-hoc equality in scheduler decisions: two E
    values that should tie can differ in the last ulp if one was computed
    incrementally, silently flipping a grant.  Compare with ``<``/``<=``
    (the grant rule needs only an order) or against the infinity
    sentinel, which is exempt because IEEE infinity is exact.
    """

    rule_id = "RL004"
    summary = ("no ==/!= on critical-path/weight floats in "
               "core/schedulers/ (infinity sentinel exempt)")

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_dir("core/schedulers")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_inf_sentinel(left) or _is_inf_sentinel(right):
                    continue
                if _is_float_expr(left) or _is_float_expr(right):
                    yield self.violation(
                        ctx, node,
                        "==/!= between critical-path/weight floats: use an "
                        "ordering comparison, math.isclose, or the "
                        "INFINITE_CONTENTION sentinel")


# ---------------------------------------------------------------------------
# RL005 — exception hygiene
# ---------------------------------------------------------------------------

_BLIND_TYPES = frozenset({"Exception", "BaseException"})


def _names_blind_type(node: Optional[ast.expr]) -> bool:
    if node is None:
        return True
    if isinstance(node, ast.Name):
        return node.id in _BLIND_TYPES
    if isinstance(node, ast.Attribute):
        return node.attr in _BLIND_TYPES
    if isinstance(node, ast.Tuple):
        return any(_names_blind_type(item) for item in node.elts)
    return False


@register_rule
class ExceptionHygieneRule(Rule):
    """RL005: no silent broad-exception swallows.

    The exception hierarchy in :mod:`repro.errors` exists so callers can
    catch precisely; a blind ``except Exception: pass`` hides WTPG
    inconsistencies (:class:`SchedulerError` and friends) that the
    invariant suite is designed to surface loudly.  Bare excepts in
    general are ruff ``E722``; a bare ``except: pass`` still fires here,
    since a missing type is the blindest of all.
    """

    rule_id = "RL005"
    summary = "no 'except Exception: pass' swallows"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.ExceptHandler)
                    and _names_blind_type(node.type)
                    and len(node.body) == 1
                    and isinstance(node.body[0], ast.Pass)):
                yield self.violation(
                    ctx, node,
                    "except Exception: pass silently swallows library "
                    "errors: narrow the type or handle the failure")
