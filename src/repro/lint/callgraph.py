"""Project-wide call graph over the ``repro`` package.

The interprocedural rules (RL009, RL012) need one fact the
per-file CFGs cannot provide: *which function does this call reach?*
This module builds a whole-program call graph from the already-parsed
:class:`~repro.lint.model.FileContext` set:

* **functions** are indexed by :data:`FunctionId` — ``(logical path,
  qualified name)``, e.g. ``("repro/machine/shard.py",
  "ControlPlane.transaction_process")``.  Every ``def`` in the tree is
  indexed, including nested ones (qualname ``outer.<locals>.inner``)
  and redefinitions (``name#<line>``), so every body has one CFG and
  one summary.
* **resolution** is deliberately name-based and conservative:

  - ``name(...)`` resolves through, in order: a local single-assignment
    alias (``f = helper`` … ``f()``), a function of the same module, an
    imported name (followed transitively through package ``__init__``
    re-exports), a class of the project (the call then targets its
    ``__init__``).
  - ``self.m(...)`` / ``cls.m(...)`` resolve to a method of the
    enclosing class, walking project base classes in declaration order.
  - ``ClassName.m(...)`` and ``ClassName(...).m(...)`` resolve through
    the class index, ``mod.f(...)`` through an ``import repro.x as
    mod`` binding.
  - Everything else — calls on arbitrary receivers (``obj.m()``),
    re-assigned aliases, ``getattr`` dispatch, calls through
    containers — is **unknown**: recorded with ``callee=None`` so rules
    can choose their own policy (RL012 stays silent on unknowns, the
    summaries treat them as having no effect).

* **decorators are transparent**: a decorated ``def`` keeps its name in
  the index, so a ``functools.wraps``-wrapped generator still counts as
  a generator at its call sites.  (The wrapper-factory body itself is
  indexed separately and resolved like any other function.)

The graph is purely syntactic — no imports are executed — and shared by
every interprocedural rule through :class:`repro.lint.engine.Project`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.cfg import FunctionNode

#: ``(logical module path, qualified function name)``.
FunctionId = Tuple[str, str]


@dataclass
class FunctionDecl:
    """One ``def`` in the project, with enough context to resolve calls."""

    fid: FunctionId
    node: FunctionNode
    class_name: Optional[str]   # immediately enclosing class, if any
    has_yield: bool             # a syntactic yield/yield from of its own

    @property
    def module(self) -> str:
        return self.fid[0]

    @property
    def qualname(self) -> str:
        return self.fid[1]

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ClassDecl:
    """One ``class`` in the project: its methods and base-class names."""

    module: str
    name: str
    methods: Dict[str, FunctionId] = field(default_factory=dict)
    #: Base expressions as dotted names (unresolved — resolution happens
    #: against the import tables at query time).
    bases: List[str] = field(default_factory=list)


@dataclass
class CallSite:
    """One call expression inside one function."""

    caller: FunctionId
    call: ast.Call
    callee: Optional[FunctionId]    # None = soundly unknown

    @property
    def line(self) -> int:
        return self.call.lineno

    @property
    def col(self) -> int:
        return self.call.col_offset


def module_name_of(logical: str) -> str:
    """``repro/engine/__init__.py`` -> ``repro.engine`` etc."""
    trimmed = logical[:-3] if logical.endswith(".py") else logical
    if trimmed.endswith("/__init__"):
        trimmed = trimmed[: -len("/__init__")]
    return trimmed.replace("/", ".")


def _own_yield(fn: FunctionNode) -> bool:
    """Does this function's own body contain a yield (nested defs excluded)?"""
    stack: List[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue  # a nested def's yields belong to the nested def
        stack.extend(ast.iter_child_nodes(node))
    return False


def _dotted(node: ast.AST) -> str:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class _ModuleIndex:
    """Per-module symbol tables: functions, classes, import bindings."""

    def __init__(self, logical: str) -> None:
        self.logical = logical
        self.module = module_name_of(logical)
        #: top-level (and nested) functions by qualname; top-level only
        #: by bare name for call resolution.
        self.functions: Dict[str, FunctionId] = {}
        self.classes: Dict[str, ClassDecl] = {}
        #: imported name -> (source module name, original name).  For
        #: ``import a.b as m`` the original name is "" (module binding).
        self.imports: Dict[str, Tuple[str, str]] = {}


class CallGraph:
    """The assembled graph: declarations, class index and call edges."""

    def __init__(self) -> None:
        self.functions: Dict[FunctionId, FunctionDecl] = {}
        self.calls: Dict[FunctionId, List[CallSite]] = {}
        self._modules: Dict[str, _ModuleIndex] = {}
        #: module name ("repro.core.wtpg") -> logical path, for imports.
        self._by_module_name: Dict[str, str] = {}

    # -- queries -----------------------------------------------------------

    def declaration(self, fid: FunctionId) -> Optional[FunctionDecl]:
        return self.functions.get(fid)

    def callees(self, fid: FunctionId) -> Iterator[FunctionId]:
        """Resolved callees of one function (unknown calls skipped)."""
        for site in self.calls.get(fid, ()):
            if site.callee is not None:
                yield site.callee

    def call_sites(self, fid: FunctionId) -> List[CallSite]:
        return self.calls.get(fid, [])

    def functions_of_module(self, logical: str) -> List[FunctionDecl]:
        return [decl for fid, decl in self.functions.items()
                if fid[0] == logical]

    def resolve_method(self, module: str, class_name: str,
                       method: str) -> Optional[FunctionId]:
        """``class_name.method`` in ``module``, walking project bases."""
        seen: Set[Tuple[str, str]] = set()
        stack: List[Tuple[str, str]] = [(module, class_name)]
        while stack:
            key = stack.pop(0)
            if key in seen:
                continue
            seen.add(key)
            index = self._modules.get(key[0])
            decl = index.classes.get(key[1]) if index is not None else None
            if decl is None:
                continue
            if method in decl.methods:
                return decl.methods[method]
            for base in decl.bases:
                resolved = self._resolve_class_name(key[0], base)
                if resolved is not None:
                    stack.append(resolved)
        return None

    # -- construction ------------------------------------------------------

    def _resolve_class_name(self, module: str,
                            dotted: str) -> Optional[Tuple[str, str]]:
        """A (possibly dotted) class reference -> (module, class name)."""
        index = self._modules.get(module)
        if index is None:
            return None
        head, _, rest = dotted.partition(".")
        if not rest:
            if head in index.classes:
                return (module, head)
            target = self._follow_import(module, head, depth=0)
            if target is not None:
                t_module, t_name = target
                t_index = self._modules.get(t_module)
                if t_index is not None and t_name in t_index.classes:
                    return (t_module, t_name)
            return None
        # ``mod.Class`` through a module binding.
        if head in index.imports and index.imports[head][1] == "":
            source = index.imports[head][0]
            source_logical = self._by_module_name.get(source)
            if source_logical is not None:
                return self._resolve_class_name(source_logical, rest)
        return None

    def _follow_import(self, module: str, name: str,
                       depth: int) -> Optional[Tuple[str, str]]:
        """Where does imported ``name`` in ``module`` actually live?

        Follows ``from a import b`` chains through package ``__init__``
        re-exports, bounded to keep import cycles finite.  Returns a
        ``(logical module, original name)`` pair, or None.
        """
        if depth > 8:
            return None
        index = self._modules.get(module)
        if index is None or name not in index.imports:
            return None
        source, original = index.imports[name]
        if original == "":
            return None  # a module binding, not a symbol
        source_logical = self._by_module_name.get(source)
        if source_logical is None:
            # ``from a.b import c`` can also name a *module* c.
            as_module = self._by_module_name.get(f"{source}.{name}")
            if as_module is not None:
                return None
            return None
        source_index = self._modules[source_logical]
        if (original in source_index.functions
                or original in source_index.classes):
            return (source_logical, original)
        return self._follow_import(source_logical, original, depth + 1)

    def _resolve_name_callable(self, module: str,
                               name: str) -> Optional[FunctionId]:
        """A bare ``name(...)`` call in ``module``'s scope."""
        index = self._modules.get(module)
        if index is None:
            return None
        if name in index.functions:
            return index.functions[name]
        if name in index.classes:
            return index.classes[name].methods.get("__init__")
        target = self._follow_import(module, name, depth=0)
        if target is not None:
            t_module, t_name = target
            t_index = self._modules[t_module]
            if t_name in t_index.functions:
                return t_index.functions[t_name]
            if t_name in t_index.classes:
                return t_index.classes[t_name].methods.get("__init__")
        return None


def _index_module(cg: CallGraph, logical: str,
                  tree: ast.Module) -> _ModuleIndex:
    index = _ModuleIndex(logical)
    cg._modules[logical] = index
    cg._by_module_name[index.module] = logical

    def walk_body(body: Sequence[ast.stmt], qual: str,
                  class_name: Optional[str]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{qual}{stmt.name}"
                fid = (logical, qualname)
                if fid in cg.functions:
                    # A redefinition (a property setter, a guarded
                    # alternative) keeps its own summary and CFG; names
                    # still resolve to the first definition.
                    fid = (logical, f"{qualname}#{stmt.lineno}")
                decl = FunctionDecl(fid, stmt, class_name,
                                    _own_yield(stmt))
                cg.functions[fid] = decl
                if class_name is None and qual == "":
                    index.functions.setdefault(stmt.name, fid)
                elif class_name is not None and "." not in qual[:-1]:
                    pass  # methods are indexed on their ClassDecl below
                if class_name is not None:
                    owner = index.classes.get(class_name)
                    if owner is not None and qual == f"{class_name}.":
                        owner.methods.setdefault(stmt.name, fid)
                walk_body(stmt.body, f"{fid[1]}.<locals>.", None)
            elif isinstance(stmt, ast.ClassDef):
                if qual == "":
                    decl_cls = ClassDecl(logical, stmt.name)
                    decl_cls.bases = [_dotted(base) for base in stmt.bases
                                      if _dotted(base)]
                    index.classes[stmt.name] = decl_cls
                    walk_body(stmt.body, f"{stmt.name}.", stmt.name)
                else:
                    # Nested classes: index their defs for summaries but
                    # keep them out of name resolution.
                    walk_body(stmt.body, f"{qual}{stmt.name}.", stmt.name)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    index.imports[bound] = (alias.name, "")
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.module is not None and stmt.level == 0:
                    for alias in stmt.names:
                        bound = alias.asname or alias.name
                        index.imports[bound] = (stmt.module, alias.name)
            else:
                # Defs and imports under a compound statement (a
                # TYPE_CHECKING guard, try/except, a loop, a with) still
                # bind names.
                for inner in ast.iter_child_nodes(stmt):
                    if isinstance(inner, ast.ExceptHandler):
                        walk_body(inner.body, qual, class_name)
                    elif isinstance(inner, ast.stmt):
                        walk_body([inner], qual, class_name)

    walk_body(tree.body, "", None)
    return index


def _local_aliases(cg: CallGraph, module: str,
                   fn: FunctionNode) -> Dict[str, FunctionId]:
    """Single-assignment local aliases of resolvable callables.

    ``f = helper`` makes ``f(...)`` resolve to ``helper`` — but only
    when ``f`` is bound exactly once in the function from a plain
    callable reference.  A name rebound anywhere (including loop
    targets or from a non-reference expression) is ambiguous and
    resolves to unknown; that keeps the alias map sound.
    """
    bindings: Dict[str, List[Optional[FunctionId]]] = {}
    stack: List[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                resolved: Optional[FunctionId] = None
                if isinstance(node.value, ast.Name):
                    resolved = cg._resolve_name_callable(
                        module, node.value.id)
                bindings.setdefault(target.id, []).append(resolved)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            target_node = node.target
            if isinstance(target_node, ast.Name):
                bindings.setdefault(target_node.id, []).append(None)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for name_node in ast.walk(node.target):
                if isinstance(name_node, ast.Name):
                    bindings.setdefault(name_node.id, []).append(None)
        stack.extend(ast.iter_child_nodes(node))
    aliases: Dict[str, FunctionId] = {}
    for name, bound in bindings.items():
        if len(bound) == 1 and bound[0] is not None:
            aliases[name] = bound[0]
    return aliases


def _resolve_call(cg: CallGraph, decl: FunctionDecl,
                  aliases: Dict[str, FunctionId],
                  call: ast.Call) -> Optional[FunctionId]:
    func = call.func
    module = decl.module
    if isinstance(func, ast.Name):
        if func.id in aliases:
            return aliases[func.id]
        return cg._resolve_name_callable(module, func.id)
    if isinstance(func, ast.Attribute):
        receiver = func.value
        method = func.attr
        # self.m(...) / cls.m(...) inside a method.
        if (isinstance(receiver, ast.Name)
                and receiver.id in ("self", "cls")
                and decl.class_name is not None):
            return cg.resolve_method(module, decl.class_name, method)
        # ClassName.m(...) — unbound method through the class.
        if isinstance(receiver, ast.Name):
            resolved_cls = cg._resolve_class_name(module, receiver.id)
            if resolved_cls is not None:
                return cg.resolve_method(resolved_cls[0],
                                            resolved_cls[1], method)
            index = cg._modules.get(module)
            if (index is not None and receiver.id in index.imports
                    and index.imports[receiver.id][1] == ""):
                # mod.f(...) through ``import repro.x as mod``.
                source = index.imports[receiver.id][0]
                source_logical = cg._by_module_name.get(source)
                if source_logical is not None:
                    return cg._resolve_name_callable(source_logical,
                                                        method)
            return None
        # ClassName(...).m(...) — method on a fresh instance.
        if isinstance(receiver, ast.Call) and isinstance(receiver.func,
                                                         ast.Name):
            resolved_cls = cg._resolve_class_name(module,
                                                     receiver.func.id)
            if resolved_cls is not None:
                return cg.resolve_method(resolved_cls[0],
                                            resolved_cls[1], method)
        return None
    return None


def _calls_in(fn: FunctionNode) -> Iterator[ast.Call]:
    """Call expressions of one function body, nested defs excluded."""
    stack: List[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            for decorator in getattr(node, "decorator_list", []):
                stack.append(decorator)
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def build_call_graph(modules: Sequence[Tuple[str, ast.Module]]) -> CallGraph:
    """Build the graph from ``(logical path, parsed tree)`` pairs."""
    cg = CallGraph()
    for logical, tree in modules:
        _index_module(cg, logical, tree)
    for fid, decl in cg.functions.items():
        aliases = _local_aliases(cg, decl.module, decl.node)
        sites: List[CallSite] = []
        for call in _calls_in(decl.node):
            callee = _resolve_call(cg, decl, aliases, call)
            sites.append(CallSite(fid, call, callee))
        sites.sort(key=lambda s: (s.line, s.col))
        cg.calls[fid] = sites
    return cg
