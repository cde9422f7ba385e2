"""Typestate verification: protocols as data (RL006, RL013, RL014, RL016).

The fourth analysis layer.  The first three answer progressively wider
questions — syntactic shape (RL001–RL005), intraprocedural order
(RL007), interprocedural reachability (RL009, RL012) — but none of
them states the thing the paper's correctness argument is actually made
of: *object lifecycles*.  A lock declaration is registered at admission
and released or handed to the WTPG on every path; a BAT is admitted,
started, granted locks, committed or aborted, and restarted only from
aborted; an engine event is triggered exactly once; a checkpoint's
results may be merged into a sweep only once, and only after
fingerprint validation.

Here a protocol is a committed :class:`ProtocolSpec` value — states,
operation→transition rules, an error state, creators, escape semantics
and an optional exit obligation — and one generic evaluator interprets
any spec over the existing machinery:

* **object discovery** — a local name becomes *tracked* when it is a
  parameter annotated with one of the spec's ``tracked_types``, when it
  is bound from one of the spec's ``creators`` (including a named index
  of a tuple-unpacked result), when it appears at the tracked position
  of an *introducing* operation, or when it is aliased from an already
  tracked name.  All tracked names of a function are seeded at function
  entry in the spec's *start states* — every non-error state, minus the
  exit obligation's states (nothing is known about the caller, and the
  caller's ownership is not this function's obligation); creator-bound
  names are narrowed at their binding site.  Seeding everything at
  entry keeps the transfer function monotone — tracking never begins
  mid-flight, so the fixpoint cannot oscillate.  A function with no
  tracked name has no facts and is skipped.

* **operations** — three syntactic kinds, matched receiver-blind (the
  call graph cannot resolve ``self.scheduler.admit``; a method *name*
  in this codebase is unambiguous within a spec's scope):

  - ``call``: ``obj.<name>(...)`` on a tracked plain-name receiver;
  - ``arg``: a tracked name passed at a fixed positional index of a
    call whose bare/attribute name matches (``admit(txn, now)`` and
    ``self.scheduler.admit(txn, now)`` both match ``admit`` @ 0).  An
    attribute operand ``x.attr`` stands for ``x``, so
    ``register(spec)`` pairs with ``unregister(spec.tid)``;
  - ``write``: ``obj.<attr> = ...`` on a tracked plain-name receiver.

  An operation maps each legal source state to a *set* of successor
  states (admission may reject: ``pending -> {pending, active}``).  An
  operation with **no** legal sources is *forbidden* — flagged from any
  non-error state.

* **evaluation** — facts are ``(name, state)`` pairs, joined by union
  and solved forward (:func:`~repro.lint.dataflow.solve_forward`) over
  the :mod:`repro.lint.cfg` CFG.  At an operation, states outside the
  legal sources flow to the spec's error state; once in the error state
  an object is silent (one finding per broken object, not a cascade).

* **reporting policy (must-violation)** — a site is flagged only when
  *no* reachable non-error state permits the operation.  The union
  lattice carries may-information, so "illegal on some path" would
  flag every operation downstream of a nondeterministic outcome (the
  admit example above).  The cost, documented in docs/lint.md: an
  operation illegal on one arm of a join but legal on the other is
  not reported.

* **exit obligation** — ``must_not_exit`` names states no tracked name
  may carry to the normal or the raise exit.  A name is judged only if
  the function both *acquires* it (an operation or creator moving it
  into such a state) and *releases* it (one moving it out): a function
  that only acquires hands ownership on by design.  A leak is reported
  at the name's first acquire site.

* **interprocedural lift** — when a tracked name is passed to a call
  the PR 6 call graph resolves and no syntactic operation matched, the
  callee contributes its *transition relation* for that parameter: the
  map ``in-state -> possible out-states`` obtained by running the same
  transfer over the callee's CFG once per starting state (resolved
  callees of the callee recurse, cut at cycles with the identity
  relation).  Relations are memoised in ``Project.analysis_cache``.
  A call whose relation maps every reachable state to the error state
  alone is itself a must-violation at the call site.

* **escape semantics** — a tracked name handed to an unmatched,
  unresolvable call (or used as the receiver of an unknown method)
  either keeps its states (``on_escape="ignore"``: the protocol's
  operations are the only state-changing surface, the default for the
  shipped specs) or resets to the start states (``on_escape="reset"``:
  the conservative choice when unknown code may advance the object).

The four shipped rules and their scopes:

* **RL006** — lock lifecycle (``core/schedulers/``, ``core/locks.py``,
  ``machine/``): a declaration ``register``-ed, or a resource grant
  ``request``-ed, and released on some path is released (or handed to
  the WTPG) on every path to an exit.
* **RL013** — BAT lifecycle (``core/schedulers/``, ``machine/shard.py``,
  ``machine/control_log.py``, ``faults/``): no commit after a doom or
  abort, no double abort, no lock grant to a transaction that is not
  admitted-and-waiting, restart only from aborted.
* **RL014** — engine Event lifecycle (``engine/``): an event
  triggers at most once and only through ``succeed()``/``fail()``
  (direct ``_value`` writes bypass the ``EngineStateError`` guard),
  and only a triggered (failed) event is defused.
* **RL016** — checkpoint/sweep-task lifecycle
  (``experiments/parallel.py``): a loaded checkpoint's results are
  merged once, and only after ``_validate_checkpoint`` accepted the
  fingerprint.

Like every prior layer, the rules ran against the real modules before
landing: each finding was fixed or justified-and-suppressed inline, and
the teeth tests in ``tests/lint/test_typestate.py`` strip those
suppressions (or re-seed the historical bug) to prove the rules still
fire on production code shapes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cached_property
from typing import (Dict, FrozenSet, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from repro.lint.callgraph import CallSite, FunctionDecl, FunctionId
from repro.lint.cfg import CFG, CFGNode
from repro.lint.dataflow import calls_of, solve_forward
from repro.lint.model import (FileContext, ProjectRule, Violation,
                              register_rule)
from repro.lint.project import Project
from repro.lint.summaries import bind_args


#: Operation kinds (see module docstring).
CALL = "call"
ARG = "arg"
WRITE = "write"

#: A dataflow fact: ``(tracked local name, protocol state)``.
Fact = Tuple[str, str]
#: One reported problem before the owning rule stamps its id on it.
Finding = Tuple[int, int, str]


@dataclass(frozen=True)
class Operation:
    """One protocol operation and its transition rules.

    ``transitions`` maps each legal source state to the set of states
    the object may be in afterwards.  An empty mapping makes the
    operation *forbidden*: no state permits it.  ``introduces`` marks
    operations whose tracked operand starts tracking (at all states)
    even without an annotation or creator — the only way to track
    plain-``int`` handles such as transaction ids.
    """

    kind: str                 # CALL, ARG or WRITE
    name: str                 # method/function name, or attribute for WRITE
    transitions: Mapping[str, FrozenSet[str]]
    arg_index: int = 0        # ARG only: position of the tracked operand
    introduces: bool = False
    description: str = ""     # appended to findings and --explain rows

    def sources(self) -> FrozenSet[str]:
        return frozenset(self.transitions)

    def describe(self) -> str:
        if self.kind == WRITE:
            return f"write to .{self.name}"
        if self.kind == ARG:
            return f"{self.name}(...) [operand {self.arg_index}]"
        return f".{self.name}()"


@dataclass(frozen=True)
class Creator:
    """A callable whose result (or one tuple element of it) is a fresh
    protocol object in a known state."""

    name: str                       # bare or attribute callable name
    state: str
    result_index: Optional[int] = None  # None: whole result; int: elts[i]


@dataclass(frozen=True)
class ProtocolSpec:
    """One complete protocol: the data a typestate rule is driven by."""

    name: str
    states: Tuple[str, ...]         # non-error states, display order
    error_state: str
    creators: Tuple[Creator, ...]
    operations: Tuple[Operation, ...]
    tracked_types: FrozenSet[str] = frozenset()
    on_escape: str = "ignore"       # or "reset"
    description: str = ""
    must_not_exit: FrozenSet[str] = frozenset()  # the exit obligation

    def start_states(self) -> FrozenSet[str]:
        """Where a tracked name starts: every state an exit may carry."""
        return frozenset(self.states) - self.must_not_exit


# ---------------------------------------------------------------------------
# Spec-shaped helpers
# ---------------------------------------------------------------------------

def _called_name(call: ast.Call) -> str:
    """``name`` for ``name(...)`` or ``<expr>.name(...)``, else ""."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _annotation_names(node: Optional[ast.AST]) -> Set[str]:
    """Every plain name in an annotation, unwrapping string annotations.

    ``Optional[Event]`` yields ``{Optional, Event}`` — matching any of
    the spec's tracked types is enough.
    """
    if node is None:
        return set()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return set()
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _operand_name(node: ast.AST) -> Optional[str]:
    """The tracked name an ``arg`` operand denotes: ``x`` or ``x.attr``."""
    if isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _all_args(fn: ast.AST) -> List[ast.arg]:
    args = getattr(fn, "args", None)
    if args is None:
        return []
    return (list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs))


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body, nested function/lambda bodies excluded."""
    stack: List[ast.AST] = list(getattr(fn, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# Per-function evaluation
# ---------------------------------------------------------------------------

class _FunctionAnalysis:
    """Evaluate one spec over one function's CFG."""

    def __init__(self, spec: ProtocolSpec, project: Project,
                 fid: FunctionId) -> None:
        self.spec = spec
        self.project = project
        self.fid = fid
        decl = project.declaration(fid)
        cfg = project.summaries.cfg(fid)
        assert decl is not None and cfg is not None
        self.decl: FunctionDecl = decl
        self.cfg: CFG = cfg
        self.start = spec.start_states()
        self.error = spec.error_state
        self.call_ops: Dict[str, Operation] = {
            op.name: op for op in spec.operations if op.kind == CALL}
        self.arg_ops: Dict[str, List[Operation]] = {}
        for op in spec.operations:
            if op.kind == ARG:
                self.arg_ops.setdefault(op.name, []).append(op)
        self.write_ops: Dict[str, Operation] = {
            op.name: op for op in spec.operations if op.kind == WRITE}
        self.creators: Dict[str, Creator] = {
            c.name: c for c in spec.creators}
        # Exit obligation bookkeeping: each name's acquire sites as
        # (line, col, operation) and the names released anywhere.
        self.acquired: Dict[str, List[Tuple[int, int, str]]] = {}
        self.released: Set[str] = set()
        self.relevant = self._relevant_names()

    @cached_property
    def sites(self) -> Dict[int, CallSite]:
        return {id(site.call): site
                for site in self.project.callgraph.call_sites(self.fid)}

    # -- tracked-name discovery (see module docstring) ---------------------

    def _relevant_names(self) -> FrozenSet[str]:
        names: Set[str] = set()
        for arg in _all_args(self.decl.node):
            if self.spec.tracked_types & _annotation_names(arg.annotation):
                names.add(arg.arg)
        # Without an annotated parameter, only a creator or introducing
        # call starts tracking; the call graph already lists the calls.
        starters = set(self.creators) | {
            op.name for op in self.spec.operations if op.introduces}
        if not names and not any(
                _called_name(site.call) in starters
                for site in self.project.callgraph.call_sites(self.fid)):
            return frozenset()
        alias_edges: List[Tuple[str, str]] = []
        for node in _own_nodes(self.decl.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                value = node.value
                creator = self._creator_of(value)
                for target in targets:
                    bound: Optional[str] = None
                    if isinstance(target, ast.Name):
                        if creator is not None and creator.result_index is None:
                            bound = target.id
                        elif isinstance(value, ast.Name):
                            alias_edges.append((target.id, value.id))
                    elif isinstance(target, ast.Tuple) and creator is not None:
                        index = creator.result_index
                        if (index is not None and index < len(target.elts)
                                and isinstance(target.elts[index], ast.Name)):
                            bound = target.elts[index].id  # type: ignore[union-attr]
                    if bound is not None and creator is not None:
                        names.add(bound)
                        self._note(bound, value, creator.name,
                                   dict.fromkeys(self.start,
                                                 frozenset({creator.state})))
            elif isinstance(node, ast.Call):
                name = _called_name(node)
                op = self.call_ops.get(name)
                if (op is not None and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)):
                    if op.introduces:
                        names.add(node.func.value.id)
                    self._note(node.func.value.id, node, op.name,
                               op.transitions)
                for arg_op in self.arg_ops.get(name, []):
                    if arg_op.arg_index >= len(node.args):
                        continue
                    operand = _operand_name(node.args[arg_op.arg_index])
                    if operand is not None:
                        if arg_op.introduces:
                            names.add(operand)
                        self._note(operand, node, arg_op.name,
                                   arg_op.transitions)
        changed = True
        while changed:
            changed = False
            for target, source in alias_edges:
                if source in names and target not in names:
                    names.add(target)
                    changed = True
        return frozenset(names)

    def _note(self, name: str, node: Optional[ast.AST], what: str,
              moves: Mapping[str, FrozenSet[str]]) -> None:
        """Record whether ``what`` acquires or releases ``name``: moves
        it into, or out of, a state the exit obligation forbids."""
        held = self.spec.must_not_exit
        if not held:
            return
        if any(targets & held for source, targets in moves.items()
               if source not in held):
            self.acquired.setdefault(name, []).append(
                (getattr(node, "lineno", 1), getattr(node, "col_offset", 0),
                 what))
        if any(targets - held for source, targets in moves.items()
               if source in held):
            self.released.add(name)

    def _creator_of(self, value: Optional[ast.AST]) -> Optional[Creator]:
        if isinstance(value, ast.Call):
            return self.creators.get(_called_name(value))
        return None

    # -- fact plumbing -----------------------------------------------------

    @staticmethod
    def _states(facts: FrozenSet[object], name: str) -> FrozenSet[str]:
        return frozenset(fact[1] for fact in facts
                         if isinstance(fact, tuple) and fact[0] == name)

    @staticmethod
    def _set(facts: FrozenSet[object], name: str,
             states: FrozenSet[str]) -> FrozenSet[object]:
        kept = frozenset(fact for fact in facts
                         if not (isinstance(fact, tuple)
                                 and fact[0] == name))
        return kept | frozenset((name, state) for state in states)

    def entry_facts(self) -> FrozenSet[object]:
        return frozenset((name, state) for name in self.relevant
                         for state in self.start)

    # -- the transfer ------------------------------------------------------

    def run(self) -> List[Finding]:
        """Solve, then replay each node's entering facts with reporting."""
        def transfer(node: CFGNode,
                     value: FrozenSet[object]) -> FrozenSet[object]:
            if node.stmt is None:
                return value
            return self._apply(node.stmt, value, None)

        result = solve_forward(self.cfg, transfer, self.entry_facts())
        findings: List[Finding] = []
        seen: Set[Finding] = set()

        def report(node: ast.AST, message: str) -> None:
            finding = (getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0), message)
            if finding not in seen:
                seen.add(finding)
                findings.append(finding)

        for node in self.cfg.nodes:
            if node.stmt is None:
                continue
            self._apply(node.stmt, result.entering(node), report)
        findings.extend(self._leaks(result.entering(self.cfg.exit)
                                    | result.entering(self.cfg.raise_exit)))
        findings.sort()
        return findings

    def _leaks(self, at_exit: FrozenSet[object]) -> Iterator[Finding]:
        """The exit obligation, for names acquired *and* released here."""
        for name in sorted(self.released.intersection(self.acquired)):
            held = self._states(at_exit, name) & self.spec.must_not_exit
            if held:
                line, col, what = min(self.acquired[name])
                yield (line, col, (
                    f"{self.spec.name}: {what}() of '{name}' in "
                    f"{self.decl.name} is released on some paths but can "
                    f"reach a function exit still {'/'.join(sorted(held))}"
                    f": release it on every path (including exception "
                    f"edges), or keep ownership past the function on all "
                    f"paths"))

    def _apply(self, stmt: ast.AST, facts: FrozenSet[object],
               report: Optional[object]) -> FrozenSet[object]:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            facts = self._apply_calls(stmt, facts, report)
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)):
                    op = self.write_ops.get(target.attr)
                    if op is not None:
                        facts = self._apply_op(op, target.value.id,
                                               target, facts, report)
            for target in targets:
                facts = self._bind(target, stmt.value, facts)
            return facts
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if (isinstance(target, ast.Name)
                        and target.id in self.relevant):
                    facts = self._set(facts, target.id, self.start)
            return facts
        facts = self._apply_calls(stmt, facts, report)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(stmt.target):
                if isinstance(sub, ast.Name) and sub.id in self.relevant:
                    facts = self._set(facts, sub.id, self.start)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    for sub in ast.walk(item.optional_vars):
                        if (isinstance(sub, ast.Name)
                                and sub.id in self.relevant):
                            facts = self._set(facts, sub.id,
                                              self.start)
        return facts

    def _bind(self, target: ast.AST, value: Optional[ast.AST],
              facts: FrozenSet[object]) -> FrozenSet[object]:
        creator = self._creator_of(value)
        if isinstance(target, ast.Name):
            if target.id not in self.relevant:
                return facts
            if creator is not None and creator.result_index is None:
                return self._set(facts, target.id,
                                 frozenset({creator.state}))
            if isinstance(value, ast.Name):
                states = self._states(facts, value.id)
                if states:
                    return self._set(facts, target.id, states)
            # Opaque rebinding: back to the start states.
            return self._set(facts, target.id, self.start)
        if isinstance(target, ast.Tuple):
            for index, elt in enumerate(target.elts):
                if not isinstance(elt, ast.Name):
                    continue
                if elt.id not in self.relevant:
                    continue
                if creator is not None and creator.result_index == index:
                    facts = self._set(facts, elt.id,
                                      frozenset({creator.state}))
                else:
                    facts = self._set(facts, elt.id, self.start)
        return facts

    def _apply_calls(self, stmt: ast.AST, facts: FrozenSet[object],
                     report: Optional[object]) -> FrozenSet[object]:
        for call in calls_of(stmt):
            facts = self._apply_call(call, facts, report)
        return facts

    def _apply_call(self, call: ast.Call, facts: FrozenSet[object],
                    report: Optional[object]) -> FrozenSet[object]:
        name = _called_name(call)
        handled: Set[int] = set()     # ids of operand Name nodes consumed
        receiver_handled = False

        func = call.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)):
            op = self.call_ops.get(func.attr)
            if op is not None and self._states(facts, func.value.id):
                facts = self._apply_op(op, func.value.id, call, facts,
                                       report)
                receiver_handled = True

        for arg_op in self.arg_ops.get(name, []):
            if arg_op.arg_index >= len(call.args):
                continue
            operand = call.args[arg_op.arg_index]
            tracked = _operand_name(operand)
            if tracked is not None and self._states(facts, tracked):
                facts = self._apply_op(arg_op, tracked, call, facts, report)
                handled.add(id(operand))

        if not handled and not receiver_handled:
            facts = self._apply_callee_relation(call, facts, report,
                                               handled)

        if self.spec.on_escape == "reset":
            facts = self._apply_escapes(call, facts, handled,
                                        receiver_handled)
        return facts

    def _apply_op(self, op: Operation, name: str, node: ast.AST,
                  facts: FrozenSet[object],
                  report: Optional[object]) -> FrozenSet[object]:
        entering = self._states(facts, name)
        if not entering:
            return facts
        legal = frozenset(s for s in entering if s in op.transitions)
        non_error = entering - {self.error}
        if report is not None and non_error and not (non_error
                                                     & op.sources()):
            allowed = (", ".join(sorted(op.sources()))
                       or "no state (the operation is forbidden)")
            extra = f"; {op.description}" if op.description else ""
            report(node, (  # type: ignore[operator]
                f"{self.spec.name}: {op.describe()} on '{name}' is "
                f"illegal in every reachable state "
                f"({', '.join(sorted(non_error))}); allowed from: "
                f"{allowed}{extra}"))
        post: Set[str] = set()
        for state in legal:
            post.update(op.transitions[state])
        if entering - legal:
            post.add(self.error)
        return self._set(facts, name, frozenset(post))

    # -- interprocedural lift ---------------------------------------------

    def _apply_callee_relation(self, call: ast.Call,
                               facts: FrozenSet[object],
                               report: Optional[object],
                               handled: Set[int]) -> FrozenSet[object]:
        site = self.sites.get(id(call))
        if site is None or site.callee is None:
            return facts
        callee_decl = self.project.declaration(site.callee)
        if callee_decl is None:
            return facts
        for param, arg in bind_args(callee_decl, call):
            if not isinstance(arg, ast.Name):
                continue
            entering = self._states(facts, arg.id)
            if not entering:
                continue
            relation = transition_relation(self.project, self.spec,
                                           site.callee, param)
            if relation is None:
                continue
            handled.add(id(arg))
            post: Set[str] = set()
            survivable = False
            for state in entering:
                outs = relation.get(state, frozenset({state}))
                post.update(outs)
                if state != self.error and (outs - {self.error}):
                    survivable = True
            non_error = entering - {self.error}
            if report is not None and non_error and not survivable:
                report(call, (  # type: ignore[operator]
                    f"{self.spec.name}: call to "
                    f"{callee_decl.qualname}() cannot complete legally "
                    f"with '{arg.id}' in state "
                    f"({', '.join(sorted(non_error))}): every outcome "
                    f"inside the callee violates the protocol"))
            facts = self._set(facts, arg.id, frozenset(post))
        return facts

    def _apply_escapes(self, call: ast.Call, facts: FrozenSet[object],
                       handled: Set[int],
                       receiver_handled: bool) -> FrozenSet[object]:
        """``on_escape="reset"``: unknown code may advance the object."""
        func = call.func
        if (not receiver_handled and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and self._states(facts, func.value.id)):
            facts = self._set(facts, func.value.id, self.start)
        operands = list(call.args) + [kw.value for kw in call.keywords]
        for operand in operands:
            if (isinstance(operand, ast.Name) and id(operand) not in handled
                    and self._states(facts, operand.id)):
                facts = self._set(facts, operand.id, self.start)
        return facts


# ---------------------------------------------------------------------------
# Transition relations (the function-summary lift)
# ---------------------------------------------------------------------------

Relation = Dict[str, FrozenSet[str]]


def transition_relation(project: Project, spec: ProtocolSpec,
                        fid: FunctionId,
                        param: str) -> Optional[Relation]:
    """``in-state -> possible out-states`` of ``param`` through ``fid``.

    Computed by running the spec's transfer over the callee's CFG once
    per starting state and reading the parameter's states at the normal
    exit (a parameter rebound locally contributes the identity — the
    caller's object is unaffected).  Memoised per
    ``(spec, function, param)`` in ``Project.analysis_cache``; recursion
    is cut by publishing the identity relation before computing, so
    mutually recursive helpers converge to a sound over-approximation.
    """
    key = ("typestate", spec.name, fid, param)
    cache = project.analysis_cache
    if key in cache:
        return cache[key]  # type: ignore[return-value]
    decl = project.declaration(fid)
    cfg = project.summaries.cfg(fid)
    if decl is None or cfg is None:
        cache[key] = None
        return None
    if param not in {arg.arg for arg in _all_args(decl.node)}:
        cache[key] = None
        return None
    identity: Relation = {state: frozenset({state})
                          for state in spec.states}
    cache[key] = identity  # recursion cut: callee-of-self sees identity
    analysis = _FunctionAnalysis(spec, project, fid)

    def transfer(node: CFGNode,
                 value: FrozenSet[object]) -> FrozenSet[object]:
        if node.stmt is None:
            return value
        return analysis._apply(node.stmt, value, None)

    relation: Relation = {}
    base = frozenset((name, state) for name in analysis.relevant
                     if name != param for state in analysis.start)
    for start in spec.states:
        entry = base | frozenset({(param, start)})
        result = solve_forward(cfg, transfer, entry)
        out = analysis._states(result.entering(cfg.exit), param)
        relation[start] = out or frozenset({start})
    cache[key] = relation
    return relation


def check_protocol(spec: ProtocolSpec, project: Project,
                   ctx: FileContext) -> List[Finding]:
    """Evaluate one spec over every function of one file."""
    findings: List[Finding] = []
    for decl in project.functions_of(ctx.logical):
        if project.summaries.cfg(decl.fid) is None:
            continue
        analysis = _FunctionAnalysis(spec, project, decl.fid)
        if analysis.relevant:   # no tracked name: no facts, no findings
            findings.extend(analysis.run())
    findings.sort()
    return findings


# ---------------------------------------------------------------------------
# --explain rendering
# ---------------------------------------------------------------------------

def render_table(spec: ProtocolSpec) -> str:
    """A human-readable state-machine table for ``--explain``."""
    lines = [f"protocol: {spec.name}"]
    if spec.description:
        lines.append(f"  {spec.description}")
    lines.append(f"states: {', '.join(spec.states)} "
                 f"(+ {spec.error_state})")
    if spec.creators:
        for creator in spec.creators:
            where = ("" if creator.result_index is None
                     else f" [result {creator.result_index}]")
            lines.append(f"creator: {creator.name}(...){where} -> "
                         f"{creator.state}")
    if spec.tracked_types:
        lines.append("tracked annotations: "
                     + ", ".join(sorted(spec.tracked_types)))
    lines.append(f"on escape to unknown code: {spec.on_escape}")
    if spec.must_not_exit:
        lines.append("must not reach a function exit: "
                     + ", ".join(sorted(spec.must_not_exit)))
    header = f"{'operation':<36} {'from':<22} to"
    lines.append(header)
    lines.append("-" * len(header))
    for op in spec.operations:
        rows = sorted(op.transitions.items())
        if not rows:
            lines.append(f"{op.describe():<36} {'(forbidden)':<22} "
                         f"{spec.error_state}")
        for source, targets in rows:
            lines.append(f"{op.describe():<36} {source:<22} "
                         f"{'|'.join(sorted(targets))}")
        if op.description:
            lines.append(f"    {op.description}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The committed protocols
# ---------------------------------------------------------------------------

def _t(**transitions: Sequence[str]) -> Dict[str, FrozenSet[str]]:
    return {source: frozenset(targets)
            for source, targets in transitions.items()}


_HOLD = _t(free=("held",), held=("held",))
_FREE = _t(free=("free",), held=("free",))

#: RL006 — lock declarations and counted-resource grants.  ``register``
#: opens a declaration in the LockTable; ``unregister`` (reject/abort)
#: or the hand-over into/out of the WTPG admission path
#: (``builder.add_transaction``/``remove_transaction``) closes it.
#: ``request``/``release`` is the grant and return of a counted
#: resource unit; no code in ``src/`` claims one since the control
#: node's CPU charges became closed-form (``ControlShard.charge``).
#: Every operation is legal in every state: the protocol's only check is
#: the exit obligation.
LOCK_PROTOCOL = ProtocolSpec(
    name="lock lifecycle",
    states=("free", "held"),
    error_state="invalid",
    creators=(Creator("request", "held"),),
    operations=(
        Operation(ARG, "register", _HOLD, introduces=True,
                  description="a declaration registered at admission"),
        Operation(ARG, "unregister", _FREE),
        Operation(ARG, "add_transaction", _FREE, arg_index=2,
                  description="ownership passes to the WTPG"),
        Operation(ARG, "remove_transaction", _FREE, arg_index=2),
        Operation(ARG, "release", _FREE),
    ),
    must_not_exit=frozenset({"held"}),
    description="register/request -> unregister, WTPG hand-over or "
                "release on every path to an exit",
)

#: RL013 — the BAT lifecycle of the paper's §3 walked by
#: ``ControlPlane.transaction_process``.  ``admit`` is nondeterministic
#: (the scheduler may reject); the binding ``start_time`` write the CN
#: performs only after an accepted admission collapses it to *active*.
BAT_PROTOCOL = ProtocolSpec(
    name="BAT lifecycle",
    states=("pending", "active", "aborted", "committed"),
    error_state="invalid",
    creators=(Creator("TransactionRuntime", "pending"),),
    operations=(
        Operation(ARG, "admit", _t(pending=("pending", "active")),
                  description="admission may accept or reject"),
        Operation(WRITE, "start_time",
                  _t(pending=("active",), active=("active",)),
                  description="the CN stamps start_time only once the "
                              "scheduler accepted the BAT"),
        Operation(ARG, "request_lock", _t(active=("active",)),
                  description="lock requests only for an admitted, "
                              "uncommitted BAT"),
        Operation(ARG, "_apply_grant", _t(active=("active",)),
                  description="a grant only lands on an admitted, "
                              "waiting BAT"),
        Operation(CALL, "advance_step", _t(active=("active",))),
        Operation(ARG, "commit", _t(active=("committed",)),
                  description="no commit after a doom or abort"),
        Operation(ARG, "abort_transaction", _t(active=("aborted",)),
                  description="no double abort"),
        Operation(CALL, "reset_for_retry", _t(aborted=("pending",)),
                  description="restart only from aborted"),
        Operation(CALL, "response_time", _t(committed=("committed",))),
    ),
    tracked_types=frozenset({"TransactionRuntime"}),
    on_escape="ignore",
    description="admitted -> running -> committed/aborted -> restarted; "
                "state changes only through the scheduler API",
)

#: RL014 — the engine Event contract.  Direct ``_value`` writes are
#: forbidden outright: they bypass the ``EngineStateError`` re-trigger
#: guard in ``succeed()``/``fail()``.
EVENT_PROTOCOL = ProtocolSpec(
    name="Event lifecycle",
    states=("pending", "triggered", "defused"),
    error_state="corrupt",
    creators=(Creator("Event", "pending"), Creator("AllOf", "pending"),
              Creator("Timeout", "pending")),
    operations=(
        Operation(CALL, "succeed", _t(pending=("triggered",)),
                  introduces=True,
                  description="an event triggers at most once"),
        Operation(CALL, "fail", _t(pending=("triggered",)),
                  introduces=True,
                  description="an event triggers at most once"),
        Operation(WRITE, "_value", {},
                  description="trigger through succeed()/fail(), which "
                              "enforce the single-trigger guard"),
        Operation(WRITE, "_defused", _t(triggered=("defused",)),
                  description="only a triggered (failed) event is "
                              "defused"),
    ),
    tracked_types=frozenset({"Event"}),
    on_escape="ignore",
    description="created -> triggered (once) -> processed; failed "
                "sub-events of conditions must be defused",
)

#: RL016 — checkpoint results: loaded, validated, merged exactly once.
CHECKPOINT_PROTOCOL = ProtocolSpec(
    name="checkpoint lifecycle",
    states=("loaded", "validated", "merged"),
    error_state="invalid",
    creators=(Creator("read_checkpoint", "loaded", result_index=1),),
    operations=(
        Operation(ARG, "_validate_checkpoint", _t(loaded=("validated",)),
                  arg_index=1,
                  description="fingerprint and task-key validation "
                              "must see freshly loaded results"),
        Operation(ARG, "update", _t(validated=("merged",)),
                  description="a task result set merges into the sweep "
                              "exactly once, after validation"),
    ),
    on_escape="ignore",
    description="read_checkpoint -> _validate_checkpoint -> merged "
                "into the done map exactly once",
)


# ---------------------------------------------------------------------------
# The rules
# ---------------------------------------------------------------------------

class TypestateRule(ProjectRule):
    """Shared driver: evaluate ``spec`` over the files in scope."""

    spec: ProtocolSpec

    def check_project(self, ctx: FileContext,
                      project: Project) -> Iterator[Violation]:
        for line, col, message in check_protocol(self.spec, project, ctx):
            yield Violation(self.rule_id, ctx.display, line, col, message)


@register_rule
class LockLifecycleRule(TypestateRule):
    rule_id = "RL006"
    summary = ("lock lifecycle (typestate): a declaration (register) or "
               "resource grant (request) released on some paths is "
               "released on every path to a function exit")
    spec = LOCK_PROTOCOL

    def applies_to(self, ctx: FileContext) -> bool:
        return (ctx.in_dir("core/schedulers")
                or ctx.is_module("repro/core/locks.py")
                or ctx.in_dir("machine"))


@register_rule
class BatLifecycleRule(TypestateRule):
    rule_id = "RL013"
    summary = ("BAT lifecycle conformance (typestate): no commit after "
               "doom/abort, no double abort, grants only to waiting "
               "transactions, restart only from aborted")
    spec = BAT_PROTOCOL

    def applies_to(self, ctx: FileContext) -> bool:
        return (ctx.in_dir("core/schedulers") or ctx.in_dir("faults")
                or ctx.is_module("repro/machine/shard.py")
                or ctx.is_module("repro/machine/control_log.py"))


@register_rule
class EventLifecycleRule(TypestateRule):
    rule_id = "RL014"
    summary = ("engine Event lifecycle (typestate): trigger once via "
               "succeed()/fail(), defuse only triggered events")
    spec = EVENT_PROTOCOL

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_dir("engine")


@register_rule
class CheckpointLifecycleRule(TypestateRule):
    rule_id = "RL016"
    summary = ("checkpoint/sweep-task lifecycle (typestate): results "
               "merge once, only after fingerprint validation")
    spec = CHECKPOINT_PROTOCOL

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.is_module("repro/experiments/parallel.py")
