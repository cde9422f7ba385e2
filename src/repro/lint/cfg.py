"""Intraprocedural control-flow graphs over ``ast`` function bodies.

The CFG is the substrate every flow-sensitive rule runs on: one
:class:`CFGNode` per simple statement or compound-statement header, a
distinguished ``entry``, a ``exit`` for normal completion (every
``return`` and the fall-off-the-end path) and a ``raise`` exit for
exceptional completion.  Each function's CFG is built once, by
:class:`repro.lint.summaries.SummaryTable`, and shared by every rule.

Supported control flow and the modelling decisions behind it:

``if`` / ``for`` / ``while`` (with ``else``)
    Loop headers are the ``For``/``While`` node itself; the back edge
    goes body-end → header, ``continue`` → header, ``break`` → the
    point *after* the whole statement (bypassing ``else``, as in
    Python).  Loop bodies may execute zero times, so the header always
    has an edge to the ``else``/after part — including ``while True``
    (a deliberate, documented over-approximation).

``try`` / ``except`` / ``finally``
    Implicit exceptions are modelled *only* for statements lexically
    inside a ``try`` body or an ``except`` body — each such statement
    gets an edge to the innermost applicable propagation target
    (the handlers of the enclosing ``try``, or its exceptional
    ``finally`` copy, or the next try out, or the ``raise`` exit).
    Ordinary calls outside any ``try`` get no exception edges: modelling
    "anything can raise anywhere" drowns real leaks in noise, and the
    runtime treats an unexpected exception as a hard failure anyway.

    ``finally`` bodies are *duplicated*, once per continuation kind:
    one normal copy (fall-through and handler completion), one shared
    exceptional copy (implicit raises and ``raise`` statements), and
    one fresh copy per abrupt ``return``/``break``/``continue`` that
    crosses the ``try``.  Duplication keeps paths separate — a
    ``return`` inside ``try`` flows through the ``finally`` and then to
    ``exit``, never contaminating the fall-through path.

``with``
    The ``With`` header is an ordinary statement node; ``__exit__`` is
    *not* modelled as an implicit ``finally`` (no rule relies on
    context managers for cleanup).

``return`` / ``raise`` / ``break`` / ``continue``
    Abrupt statements terminate their path; pending ``finally`` bodies
    between the statement and its target are inlined innermost-first.
    A ``return`` inside a ``finally`` overrides the in-flight
    continuation, exactly as in Python.

Nodes carry the original ``ast`` statement (shared between ``finally``
copies), so transfer functions stay purely syntactic.  Labels — used by
the golden tests — are ``entry``/``exit``/``raise`` for the synthetic
nodes, ``L<line>:<Type>`` for statements, with ``#2``/``#3`` suffixes
distinguishing duplicated copies in node-creation order.
"""

from __future__ import annotations

import ast
from typing import (Dict, Iterator, List, Optional, Sequence, Set, Tuple,
                    Union)

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Node kinds.  ``stmt`` nodes carry a real ``ast.stmt`` (or an
#: ``ast.ExceptHandler``); the rest are synthetic.
ENTRY = "entry"
EXIT = "exit"
RAISE = "raise"
STMT = "stmt"
JOIN = "join"


class CFGNode:
    """One vertex of the graph."""

    __slots__ = ("index", "kind", "stmt", "note", "succs", "preds")

    def __init__(self, index: int, kind: str,
                 stmt: Optional[ast.AST] = None,
                 note: str = "") -> None:
        self.index = index
        self.kind = kind
        self.stmt = stmt
        self.note = note
        self.succs: List[int] = []
        self.preds: List[int] = []

    def base_label(self) -> str:
        if self.kind in (ENTRY, EXIT, RAISE):
            return self.kind
        if self.kind == JOIN:
            return self.note
        assert self.stmt is not None
        line = getattr(self.stmt, "lineno", 0)
        return f"L{line}:{type(self.stmt).__name__}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CFGNode {self.index} {self.base_label()}>"


class CFG:
    """A built control-flow graph for one function."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nodes: List[CFGNode] = []
        self.entry = self._new_node(ENTRY)
        self.exit = self._new_node(EXIT)
        self.raise_exit = self._new_node(RAISE)

    # -- construction ------------------------------------------------------

    def _new_node(self, kind: str, stmt: Optional[ast.AST] = None,
                  note: str = "") -> CFGNode:
        node = CFGNode(len(self.nodes), kind, stmt, note)
        self.nodes.append(node)
        return node

    def add_edge(self, src: CFGNode, dst: CFGNode) -> None:
        if dst.index not in src.succs:
            src.succs.append(dst.index)
            dst.preds.append(src.index)

    # -- queries -----------------------------------------------------------

    def successors(self, node: CFGNode) -> List[CFGNode]:
        return [self.nodes[i] for i in node.succs]

    def predecessors(self, node: CFGNode) -> List[CFGNode]:
        return [self.nodes[i] for i in node.preds]

    def stmt_nodes(self) -> List[CFGNode]:
        return [n for n in self.nodes if n.kind == STMT]

    def labels(self) -> Dict[int, str]:
        """Stable display label per node index (``#k`` dedups copies)."""
        counts: Dict[str, int] = {}
        out: Dict[int, str] = {}
        for node in self.nodes:
            base = node.base_label()
            counts[base] = counts.get(base, 0) + 1
            out[node.index] = (base if counts[base] == 1
                               else f"{base}#{counts[base]}")
        return out

    def edges(self) -> List[Tuple[str, str]]:
        """Sorted labelled edge list — the golden-test representation."""
        labels = self.labels()
        pairs = {(labels[src.index], labels[dst])
                 for src in self.nodes for dst in src.succs}
        return sorted(pairs)

    def reachable(self) -> Set[int]:
        """Node indices reachable from entry (dead code is unreachable)."""
        seen: Set[int] = set()
        stack = [self.entry.index]
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            stack.extend(self.nodes[index].succs)
        return seen


class _LoopCtx:
    """Targets for break/continue plus the finally depth at loop entry."""

    __slots__ = ("header", "breaks", "finally_depth")

    def __init__(self, header: CFGNode, finally_depth: int) -> None:
        self.header = header
        self.breaks: List[CFGNode] = []
        self.finally_depth = finally_depth


class _FinallyCtx:
    """A pending ``finally`` body and the lexical context to build it in."""

    __slots__ = ("stmts", "exc_depth", "loop_depth")

    def __init__(self, stmts: List[ast.stmt], exc_depth: int,
                 loop_depth: int) -> None:
        self.stmts = stmts
        self.exc_depth = exc_depth
        self.loop_depth = loop_depth


Frontier = List[CFGNode]


class _Builder:
    def __init__(self, fn: FunctionNode) -> None:
        self.cfg = CFG(fn.name)
        self.loops: List[_LoopCtx] = []
        #: Innermost-last propagation targets for an implicit raise; each
        #: element is the list of nodes an exception at this lexical
        #: position flows to (handler nodes or an exceptional-finally
        #: entry).  Empty stack → no exception modelling (raise exit for
        #: explicit ``raise`` only).
        self.exc_stack: List[List[CFGNode]] = []
        self.finallies: List[_FinallyCtx] = []

    # -- top level ---------------------------------------------------------

    def build(self, fn: FunctionNode) -> CFG:
        frontier = self._body(fn.body, [self.cfg.entry])
        self._connect(frontier, self.cfg.exit)
        return self.cfg

    # -- plumbing ----------------------------------------------------------

    def _connect(self, frontier: Frontier, target: CFGNode) -> None:
        for node in frontier:
            self.cfg.add_edge(node, target)

    def _exc_targets(self) -> List[CFGNode]:
        """Where an exception raised *here* flows (innermost region)."""
        if self.exc_stack:
            return self.exc_stack[-1]
        return [self.cfg.raise_exit]

    def _stmt_node(self, stmt: ast.AST, frontier: Frontier,
                   may_raise: bool = True) -> CFGNode:
        node = self.cfg._new_node(STMT, stmt)
        self._connect(frontier, node)
        # Implicit exception edges only inside a try region: the
        # enclosing handlers (or exceptional finally) may observe the
        # state at any statement of the guarded body.
        if may_raise and self.exc_stack:
            for target in self.exc_stack[-1]:
                self.cfg.add_edge(node, target)
        return node

    # -- statement dispatch ------------------------------------------------

    def _body(self, stmts: Sequence[ast.stmt],
              frontier: Frontier) -> Frontier:
        current = list(frontier)
        for stmt in stmts:
            if not current:
                break  # unreachable tail (after return/raise/…)
            current = self._stmt(stmt, current)
        return current

    def _stmt(self, stmt: ast.stmt, frontier: Frontier) -> Frontier:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            return self._loop(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, ast.Return):
            return self._return(stmt, frontier)
        if isinstance(stmt, ast.Raise):
            return self._raise(stmt, frontier)
        if isinstance(stmt, ast.Break):
            return self._break(stmt, frontier)
        if isinstance(stmt, ast.Continue):
            return self._continue(stmt, frontier)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            # Nested definitions are opaque single statements: their
            # bodies get their own CFGs if a rule asks for them.
            node = self._stmt_node(stmt, frontier)
            return [node]
        node = self._stmt_node(stmt, frontier)
        return [node]

    def _if(self, stmt: ast.If, frontier: Frontier) -> Frontier:
        head = self._stmt_node(stmt, frontier)
        then_out = self._body(stmt.body, [head])
        else_out = self._body(stmt.orelse, [head]) if stmt.orelse else [head]
        return then_out + else_out

    def _loop(self, stmt: Union[ast.For, ast.AsyncFor, ast.While],
              frontier: Frontier) -> Frontier:
        header = self._stmt_node(stmt, frontier)
        ctx = _LoopCtx(header, len(self.finallies))
        self.loops.append(ctx)
        body_out = self._body(stmt.body, [header])
        self._connect(body_out, header)  # back edge
        self.loops.pop()
        # Condition-false / iterator-exhausted: runs else, then falls out.
        after = self._body(stmt.orelse, [header]) if stmt.orelse else [header]
        return after + ctx.breaks

    def _with(self, stmt: Union[ast.With, ast.AsyncWith],
              frontier: Frontier) -> Frontier:
        head = self._stmt_node(stmt, frontier)
        return self._body(stmt.body, [head])

    def _try(self, stmt: ast.Try, frontier: Frontier) -> Frontier:
        outer_exc = self._exc_targets()

        # Shared exceptional finally copy: where uncaught exceptions (and
        # exceptions raised inside handlers) land before propagating out.
        if stmt.finalbody:
            line = stmt.finalbody[0].lineno
            exc_fin_entry = self.cfg._new_node(
                JOIN, note=f"finally@L{line}[exc]")
            exc_fin_out = self._body(stmt.finalbody, [exc_fin_entry])
            self._connect(exc_fin_out, outer_exc[0])
            for extra in outer_exc[1:]:
                self._connect(exc_fin_out, extra)
            propagate: List[CFGNode] = [exc_fin_entry]
        else:
            propagate = outer_exc

        # Handler entry nodes exist before the body is built so body
        # statements can point their implicit exception edges at them.
        handler_nodes = [self.cfg._new_node(STMT, handler)
                         for handler in stmt.handlers]

        if stmt.finalbody:
            self.finallies.append(_FinallyCtx(
                list(stmt.finalbody), len(self.exc_stack), len(self.loops)))

        # Body: exceptions go to the handlers if any, else straight to
        # the exceptional finally / outer propagation.  The pre-body
        # frontier also feeds the targets: an exception can fire before
        # the first statement's effect lands.
        body_targets = handler_nodes if handler_nodes else propagate
        for target in body_targets:
            self._connect(frontier, target)
        self.exc_stack.append(body_targets)
        body_out = self._body(stmt.body, frontier)
        self.exc_stack.pop()

        # Handlers: exceptions inside a handler propagate outward
        # (through this try's finally), never back into a sibling.
        handler_outs: Frontier = []
        for handler, node in zip(stmt.handlers, handler_nodes):
            self.exc_stack.append(propagate)
            handler_outs.extend(self._body(handler.body, [node]))
            self.exc_stack.pop()

        # else runs only when the body completed normally; its
        # exceptions are NOT caught by this try's handlers.
        if stmt.orelse:
            self.exc_stack.append(propagate)
            body_out = self._body(stmt.orelse, body_out)
            self.exc_stack.pop()

        if stmt.finalbody:
            self.finallies.pop()
            # Normal finally copy for fall-through + handler completion.
            normal_in = body_out + handler_outs
            if not normal_in:
                return []  # every path returned/raised/broke
            return self._body(stmt.finalbody, normal_in)
        return body_out + handler_outs

    # -- abrupt statements -------------------------------------------------

    def _inline_finallies(self, frontier: Frontier,
                          down_to: int) -> Frontier:
        """Duplicate pending finally bodies (innermost first) onto the
        path, restoring each one's lexical context while building it.
        Callers save and restore ``self.finallies`` around the call."""
        current = frontier
        while len(self.finallies) > down_to and current:
            ctx = self.finallies.pop()
            saved_exc, saved_loops = self.exc_stack, self.loops
            self.exc_stack = saved_exc[:ctx.exc_depth]
            self.loops = saved_loops[:ctx.loop_depth]
            current = self._body(ctx.stmts, current)
            self.exc_stack, self.loops = saved_exc, saved_loops
        return current

    def _return(self, stmt: ast.Return, frontier: Frontier) -> Frontier:
        node = self._stmt_node(stmt, frontier)
        saved = list(self.finallies)
        out = self._inline_finallies([node], 0)
        self.finallies = saved
        self._connect(out, self.cfg.exit)
        return []

    def _raise(self, stmt: ast.Raise, frontier: Frontier) -> Frontier:
        node = self.cfg._new_node(STMT, stmt)
        self._connect(frontier, node)
        # The exceptional-finally copies are already chained to the
        # right propagation target, so a raise just joins that path.
        for target in self._exc_targets():
            self.cfg.add_edge(node, target)
        return []

    def _break(self, stmt: ast.Break, frontier: Frontier) -> Frontier:
        node = self._stmt_node(stmt, frontier, may_raise=False)
        if not self.loops:
            return []  # syntactically invalid; ast.parse rejects it anyway
        ctx = self.loops[-1]
        saved = list(self.finallies)
        out = self._inline_finallies([node], ctx.finally_depth)
        self.finallies = saved
        ctx.breaks.extend(out)
        return []

    def _continue(self, stmt: ast.Continue, frontier: Frontier) -> Frontier:
        node = self._stmt_node(stmt, frontier, may_raise=False)
        if not self.loops:
            return []
        ctx = self.loops[-1]
        saved = list(self.finallies)
        out = self._inline_finallies([node], ctx.finally_depth)
        self.finallies = saved
        self._connect(out, ctx.header)
        return []


def build_cfg(fn: FunctionNode) -> CFG:
    """Build the CFG of one (non-nested) function definition."""
    return _Builder(fn).build(fn)


def header_exprs(stmt: ast.AST) -> Iterator[ast.AST]:
    """The sub-trees evaluated when *this* CFG node executes.

    A compound statement's node represents only its header — the test,
    the iterable, the context managers — while the nested body belongs
    to other nodes.  Transfer functions must walk these roots instead of
    the raw statement, or a ``for`` header would "execute" every call in
    its own loop body.  Simple statements yield themselves; nested
    function/class definitions are opaque apart from their decorators
    (their bodies run later, if at all).
    """
    if isinstance(stmt, (ast.If, ast.While)):
        yield stmt.test
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        yield stmt.target
        yield stmt.iter
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            yield item.context_expr
            if item.optional_vars is not None:
                yield item.optional_vars
    elif isinstance(stmt, ast.Try):
        return
    elif isinstance(stmt, ast.ExceptHandler):
        if stmt.type is not None:
            yield stmt.type
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
        for decorator in stmt.decorator_list:
            yield decorator
    else:
        yield stmt


def functions_of(tree: ast.AST) -> List[FunctionNode]:
    """Every function/method definition in the tree, outermost first."""
    found: List[FunctionNode] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node)
    found.sort(key=lambda fn: (fn.lineno, fn.col_offset))
    return found
