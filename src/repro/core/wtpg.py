"""Weighted Transaction Precedence Graph (Definition 1, Section 3.1).

Nodes are active transactions plus two virtual nodes: ``T0`` (the initial
transaction — represented implicitly by per-node *source weights*
``w(T0 -> Ti)``) and ``Tf`` (the final transaction — per-node *sink
weights* ``w(Ti -> Tf)``, zero under the paper's cost model).

Between two transactions there is at most one *pair edge* ``(Ti, Tj)``
carrying both directed weights.  A pair starts *unresolved* (a
conflicting-edge, shown as the shaded double arrow in the paper's figures)
and is *resolved* into a precedence-edge when the serialization order of
the two transactions becomes fixed.  Resolution is monotone: a pair can
never flip direction — attempting to is exactly what the schedulers must
detect and avoid (a predicted deadlock / inconsistency with the optimised
order W).

Weights are object counts and under the sequential-access transaction model
each weight is the shortest possible time (in ``ObjTime`` units) between
two schedule events; the critical (longest) ``T0 -> Tf`` path of a fully
resolved WTPG is therefore the earliest possible completion time of the
whole schedule — the quantity both proposed schedulers minimise.

Derived state is maintained *incrementally* so the scheduler hot paths do
not pay a full recomputation per query:

* a cached topological order of the precedence edges, locally reordered on
  :meth:`WTPG.resolve` (Pearce–Kelly style) and patched on node add/remove,
  which makes :meth:`WTPG.has_precedence_cycle` O(1) amortised;
* memoized :meth:`WTPG.ancestors` / :meth:`WTPG.descendants` closures,
  invalidated by a structure generation counter;
* a dirty-set :meth:`WTPG.critical_path_length` that, while the precedence
  structure is unchanged, recomputes only the dist values downstream of
  nodes whose weights actually changed (the per-object
  :meth:`WTPG.decrement_source` path).

See ``docs/wtpg.md`` for the per-operation complexity table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import WTPGError


def _self_pair(tid: int) -> WTPGError:
    return WTPGError(f"a transaction cannot conflict with itself: T{tid}")


@dataclass(eq=False)
class PairEdge:
    """The conflicting/precedence edge between one pair of transactions.

    ``weight_to(b)`` is ``w(a -> b)``: the objects ``b`` must still access
    after ``a`` commits before ``b`` itself can commit.  ``resolved_to`` is
    ``None`` while the pair is a conflicting-edge, otherwise the tid that
    *follows* in the serialization order.  An edge is equal and hashes
    only to itself, so a graph keys its edge indexes by the edge.
    """

    a: int
    b: int
    weight_ab: float = 0.0  # w(a -> b)
    weight_ba: float = 0.0  # w(b -> a)
    resolved_to: Optional[int] = None  # the successor tid, or None
    # Owning-WTPG notification for weight raises, so cached critical-path
    # state can be dirtied; a standalone PairEdge simply has no observer.
    _on_weight_change: Optional[Callable[[int], None]] = field(
        default=None, init=False, repr=False, compare=False)

    def weight_to(self, successor: int) -> float:
        if successor == self.b:
            return self.weight_ab
        if successor == self.a:
            return self.weight_ba
        raise WTPGError(f"T{successor} is not part of pair ({self.a},{self.b})")

    def raise_weight_to(self, successor: int, weight: float) -> None:
        """Set ``w(other -> successor)`` to the max of old and new.

        The paper: when several step pairs of the same two transactions
        conflict, each directed weight takes the largest ``due`` value.
        """
        if successor == self.b:
            if weight > self.weight_ab:
                self.weight_ab = weight
                if self._on_weight_change is not None:
                    self._on_weight_change(successor)
        elif successor == self.a:
            if weight > self.weight_ba:
                self.weight_ba = weight
                if self._on_weight_change is not None:
                    self._on_weight_change(successor)
        else:
            raise WTPGError(
                f"T{successor} is not part of pair ({self.a},{self.b})")

    @property
    def resolved(self) -> bool:
        return self.resolved_to is not None

    def predecessor(self) -> int:
        if self.resolved_to is None:
            raise WTPGError(f"pair ({self.a},{self.b}) is unresolved")
        return self.a if self.resolved_to == self.b else self.b

    def other(self, tid: int) -> int:
        if tid == self.a:
            return self.b
        if tid == self.b:
            return self.a
        raise WTPGError(f"T{tid} is not part of pair ({self.a},{self.b})")


class WTPG:
    """The weighted transaction precedence graph of all active transactions."""

    def __init__(self) -> None:
        self._source: Dict[int, float] = {}   # w(T0 -> Ti)
        self._sink: Dict[int, float] = {}     # w(Ti -> Tf), 0 in the paper
        # Every pair edge, in creation order (dict-as-ordered-set).
        self._pairs: Dict[PairEdge, None] = {}
        # tid -> neighbour -> the pair edge they share: a pair lookup is
        # two dict reads, with no key to build.
        self._neighbors: Dict[int, Dict[int, PairEdge]] = {}
        # Incrementally maintained precedence adjacency (resolved pairs
        # only) so successor/ancestor queries do not scan all pair edges.
        self._succ: Dict[int, Set[int]] = {}
        self._pred: Dict[int, Set[int]] = {}
        # The unresolved edges, in creation order, so iteration stays
        # deterministic, like scanning _pairs used to be.
        self._unresolved: Dict[PairEdge, None] = {}
        # Generation counters: ``_generation`` bumps on every observable
        # change (structure or weights) and is exposed for external cache
        # keys; ``_structure_gen`` bumps only when the precedence relation
        # (nodes or resolved edges) changes and gates the closure caches.
        # Every mutator bumps before its first write to the containers
        # above; nothing here can suspend, so no reader sees a write the
        # counters do not yet vouch for (lint rule RL003 checks both).
        self._generation = 0
        self._structure_gen = 0
        # Cached topological order of the precedence edges.
        # _known_cyclic: None = unknown (recompute lazily), False = the
        # cached order/positions are valid, True = cyclic (no order).
        self._known_cyclic: Optional[bool] = None
        self._topo_order: Optional[List[int]] = None
        self._topo_pos: Dict[int, int] = {}
        # Memoized transitive closures, valid while _closure_gen matches.
        self._anc_cache: Dict[int, Set[int]] = {}
        self._desc_cache: Dict[int, Set[int]] = {}
        self._closure_gen = -1
        # Critical-path cache: dist per node, valid while _cp_gen matches
        # the structure generation; _cp_dirty holds nodes whose weights
        # changed since dist was computed (suffix-recompute path).
        self._cp_dist: Optional[Dict[int, float]] = None
        self._cp_value = 0.0
        self._cp_gen = -1
        self._cp_dirty: Set[int] = set()

    # -- generations -----------------------------------------------------------

    @property
    def generation(self) -> int:
        """Bumped on every observable mutation (structure or weights).

        External caches (e.g. a scheduler's E-value cache) can key on this
        to detect that *anything* about the graph changed.
        """
        return self._generation

    def _note_edge_weight(self, successor: int) -> None:
        """A pair edge's directed weight was raised (PairEdge callback)."""
        self._generation += 1
        if successor in self._source:
            self._cp_dirty.add(successor)

    # -- nodes ---------------------------------------------------------------

    @property
    def transactions(self) -> Set[int]:
        return set(self._source)

    def __contains__(self, tid: int) -> bool:
        return tid in self._source

    def __len__(self) -> int:
        return len(self._source)

    def add_transaction(self, tid: int, source_weight: float,
                        sink_weight: float = 0.0) -> None:
        """Add a node with ``w(T0->Ti) = source_weight`` (its total due)."""
        if tid in self._source:
            raise WTPGError(f"T{tid} is already in the WTPG")
        if source_weight < 0 or sink_weight < 0:
            raise WTPGError("WTPG weights must be non-negative")
        self._generation += 1
        self._structure_gen += 1
        self._source[tid] = source_weight
        self._sink[tid] = sink_weight
        self._neighbors[tid] = {}
        self._succ[tid] = set()
        self._pred[tid] = set()
        # An isolated new node extends any valid topological order.
        if self._known_cyclic is False:
            assert self._topo_order is not None
            self._topo_pos[tid] = len(self._topo_order)
            self._topo_order.append(tid)

    def remove_transaction(self, tid: int) -> None:
        """Drop a node and all its pair edges (commit or admission abort)."""
        self._require(tid)
        self._generation += 1
        self._structure_gen += 1
        del self._source[tid]
        del self._sink[tid]
        for other, edge in self._neighbors.pop(tid).items():
            del self._neighbors[other][tid]
            self._succ[other].discard(tid)
            self._pred[other].discard(tid)
            self._unresolved.pop(edge, None)
            del self._pairs[edge]
        del self._succ[tid]
        del self._pred[tid]
        if self._known_cyclic is True:
            # Removal may have broken the cycle: back to unknown.
            self._known_cyclic = None
        elif self._known_cyclic is False:
            assert self._topo_order is not None
            index = self._topo_pos.pop(tid)
            self._topo_order.pop(index)
            for i in range(index, len(self._topo_order)):
                self._topo_pos[self._topo_order[i]] = i

    def _require(self, tid: int) -> None:
        if tid not in self._source:
            raise WTPGError(f"T{tid} is not in the WTPG")

    # -- weights ---------------------------------------------------------------

    def source_weight(self, tid: int) -> float:
        self._require(tid)
        return self._source[tid]

    def set_source_weight(self, tid: int, value: float) -> None:
        self._require(tid)
        value = max(0.0, value)
        if value != self._source[tid]:
            self._generation += 1
            self._source[tid] = value
            self._cp_dirty.add(tid)

    def decrement_source(self, tid: int, objects: float = 1.0) -> None:
        """Apply a weight-adjustment message (one object processed)."""
        self._require(tid)
        value = max(0.0, self._source[tid] - objects)
        if value != self._source[tid]:
            self._generation += 1
            self._source[tid] = value
            self._cp_dirty.add(tid)

    # -- pair edges -------------------------------------------------------------

    def ensure_pair(self, a: int, b: int) -> PairEdge:
        """The pair edge for (a, b), created unresolved if absent."""
        self._require(a)
        self._require(b)
        edge = self._neighbors[a].get(b)
        if edge is None:
            if a == b:
                raise _self_pair(a)
            self._generation += 1
            lo, hi = min(a, b), max(a, b)
            edge = PairEdge(lo, hi)
            edge._on_weight_change = self._note_edge_weight
            self._pairs[edge] = None
            self._unresolved[edge] = None
            self._neighbors[a][b] = edge
            self._neighbors[b][a] = edge
        return edge

    def pair(self, a: int, b: int) -> Optional[PairEdge]:
        """The pair edge of ``a`` and ``b``, or None; a self-pair raises."""
        edges = self._neighbors.get(a)
        edge = None if edges is None else edges.get(b)
        if edge is None and a == b:
            raise _self_pair(a)
        return edge

    def pairs(self) -> Tuple[PairEdge, ...]:
        return tuple(self._pairs)

    def unresolved_pairs(self) -> Tuple[PairEdge, ...]:
        return tuple(self._unresolved)

    def conflict_neighbors(self, tid: int) -> Set[int]:
        """All transactions sharing a pair edge with ``tid`` (any state)."""
        self._require(tid)
        return set(self._neighbors[tid])

    def orientation(self, a: int, b: int) -> Optional[Tuple[int, int]]:
        """``(pred, succ)`` if the pair is resolved, else None."""
        edge = self.pair(a, b)
        if edge is None or not edge.resolved:
            return None
        return (edge.predecessor(), edge.resolved_to)  # type: ignore[arg-type]

    def resolve(self, predecessor: int, successor: int) -> None:
        """Resolve the pair so ``predecessor`` precedes ``successor``.

        Idempotent for an identical resolution; raises on an attempt to
        flip an already resolved pair (callers must detect that case as a
        deadlock/inconsistency *before* resolving).
        """
        edge = self.pair(predecessor, successor)
        if edge is None:
            raise WTPGError(
                f"no conflicting-edge between T{predecessor} and T{successor}")
        if edge.resolved:
            if edge.resolved_to != successor:
                raise WTPGError(
                    f"pair ({edge.a},{edge.b}) already resolved the other way")
            return
        self._generation += 1
        self._structure_gen += 1
        edge.resolved_to = successor
        self._succ[predecessor].add(successor)
        self._pred[successor].add(predecessor)
        del self._unresolved[edge]
        if self._known_cyclic is False:
            self._pk_insert(predecessor, successor)

    # -- cached topological order ------------------------------------------------

    def _pk_insert(self, pred: int, succ: int) -> None:
        """Pearce–Kelly local reorder after the new edge ``pred -> succ``.

        Precondition: the cached order was valid for the graph without the
        new edge.  If the edge already points forward, nothing moves; else
        only the nodes between ``pos[succ]`` and ``pos[pred]`` that are
        affected get new positions.  Detects a cycle (then drops the order
        and marks the graph cyclic).
        """
        order, pos = self._topo_order, self._topo_pos
        assert order is not None
        if pos[pred] < pos[succ]:
            return
        lb, ub = pos[succ], pos[pred]
        # Forward: nodes reachable from succ within the affected region.
        # In a valid order every existing edge increases position, so any
        # path succ ~> pred stays within [lb, ub]; hitting pred = cycle.
        seen_f: Set[int] = {succ}
        stack = [succ]
        while stack:
            node = stack.pop()
            for nxt in self._succ[node]:
                if nxt == pred:
                    self._known_cyclic = True
                    self._topo_order = None
                    self._topo_pos = {}
                    return
                if nxt not in seen_f and pos[nxt] <= ub:
                    seen_f.add(nxt)
                    stack.append(nxt)
        # Backward: nodes reaching pred within the affected region.
        seen_b: Set[int] = {pred}
        stack = [pred]
        while stack:
            node = stack.pop()
            for nxt in self._pred[node]:
                if nxt not in seen_b and pos[nxt] >= lb:
                    seen_b.add(nxt)
                    stack.append(nxt)
        # No cycle: seen_f and seen_b are disjoint.  Reassign the union's
        # old positions: the backward group first, then the forward group,
        # each keeping its internal relative order.
        slots = sorted(pos[t] for t in seen_b | seen_f)
        shuffled = (sorted(seen_b, key=pos.__getitem__)
                    + sorted(seen_f, key=pos.__getitem__))
        for slot, node in zip(slots, shuffled):
            order[slot] = node
            pos[node] = slot

    def _ensure_topo(self) -> None:
        """Make the cyclicity verdict (and order, if acyclic) available."""
        if self._known_cyclic is not None:
            return
        order = self._topological_order()
        if order is None:
            self._known_cyclic = True
            self._topo_order = None
            self._topo_pos = {}
        else:
            self._known_cyclic = False
            self._topo_order = order
            self._topo_pos = {tid: i for i, tid in enumerate(order)}

    # -- precedence structure -----------------------------------------------------

    def predecessors(self, tid: int) -> Set[int]:
        """Direct predecessors of ``tid`` via resolved pairs."""
        self._require(tid)
        return set(self._pred[tid])

    def successors(self, tid: int) -> Set[int]:
        """Direct successors of ``tid`` via resolved pairs."""
        self._require(tid)
        return set(self._succ[tid])

    def ancestors(self, tid: int) -> Set[int]:
        """``before(T)``: every transaction preceding ``tid`` transitively.

        Memoized per structure generation; the returned set is a copy the
        caller may mutate freely.
        """
        self._require(tid)
        cache = self._closure_cache(self._anc_cache)
        hit = cache.get(tid)
        if hit is None:
            hit = self._closure(tid, self._pred)
            cache[tid] = hit
        return set(hit)

    def descendants(self, tid: int) -> Set[int]:
        """``after(T)``: every transaction following ``tid`` transitively.

        Memoized per structure generation; the returned set is a copy.
        """
        self._require(tid)
        cache = self._closure_cache(self._desc_cache)
        hit = cache.get(tid)
        if hit is None:
            hit = self._closure(tid, self._succ)
            cache[tid] = hit
        return set(hit)

    def _closure_cache(self, cache: Dict[int, Set[int]]) -> Dict[int, Set[int]]:
        if self._closure_gen != self._structure_gen:
            self._anc_cache.clear()
            self._desc_cache.clear()
            self._closure_gen = self._structure_gen
        return cache

    def _closure(self, tid: int, adjacency: Dict[int, Set[int]]) -> Set[int]:
        seen: Set[int] = set()
        stack = [tid]
        while stack:
            node = stack.pop()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        seen.discard(tid)
        return seen

    def has_precedence_cycle(self) -> bool:
        """True if the resolved (precedence) edges contain a cycle.

        O(1) amortised: the verdict is maintained incrementally with the
        cached topological order.
        """
        self._ensure_topo()
        return bool(self._known_cyclic)

    def creates_cycle_from(self, tid: int, targets: Iterable[int]) -> bool:
        """Would adding edges ``tid -> t`` for each target close a cycle?

        Copy-free probe: the existing precedence graph is acyclic, so any
        new cycle must pass through one of the new edges and return to
        ``tid`` — i.e. some target already reaches ``tid``.
        """
        self._require(tid)
        goal = set(targets)
        if tid in goal:
            return True
        seen: Set[int] = set()
        stack = [t for t in goal if t in self._source]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            for succ in self._succ[node]:
                if succ == tid:
                    return True
                if succ not in seen:
                    stack.append(succ)
        return False

    def _topological_order(self) -> Optional[List[int]]:
        """Full deterministic Kahn order (smallest-tid-first tie-break)."""
        indegree = {tid: 0 for tid in self._source}
        for edge in self._pairs:
            if edge.resolved:
                indegree[edge.resolved_to] += 1  # type: ignore[index]
        heap = [tid for tid, deg in indegree.items() if deg == 0]
        heapify(heap)
        order: List[int] = []
        while heap:
            node = heappop(heap)
            order.append(node)
            for succ in self._succ[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heappush(heap, succ)
        if len(order) != len(self._source):
            return None
        return order

    # -- critical path -----------------------------------------------------------

    def critical_path_length(self) -> float:
        """Length of the longest ``T0 -> Tf`` path over precedence edges.

        Unresolved conflicting-edges are ignored (deleted), as in Step 3 of
        the estimator ``E(q)``.  Raises :class:`WTPGError` on a precedence
        cycle — check :meth:`has_precedence_cycle` first where a cycle is a
        legal outcome to detect.

        Cached: while the precedence structure is unchanged, only the dist
        values downstream of weight-dirtied nodes are recomputed.
        """
        self._ensure_topo()
        if self._known_cyclic:
            raise WTPGError("cannot take critical path of a cyclic WTPG")
        order = self._topo_order
        assert order is not None
        if not order:
            self._cp_dirty.clear()
            return 0.0
        # Generation guard first, memo read second: reading _cp_dist
        # before comparing _cp_gen is exactly the stale-read shape
        # invariant 7 (and RL007) exists to rule out.
        if self._cp_gen == self._structure_gen and self._cp_dist is not None:
            dist = self._cp_dist
            if not self._cp_dirty:
                return self._cp_value
            affected: Set[int] = set()
            for tid in self._cp_dirty:
                if tid in self._source:
                    affected.add(tid)
                    affected |= self.descendants(tid)
            self._cp_dirty.clear()
            if not affected:
                return self._cp_value
            for tid in order:
                if tid in affected:
                    dist[tid] = self._dist_of(tid, dist)
        else:
            dist = {}
            for tid in order:
                dist[tid] = self._dist_of(tid, dist)
            self._cp_dist = dist
            self._cp_gen = self._structure_gen
            self._cp_dirty.clear()
        sink = self._sink
        self._cp_value = max(dist[tid] + sink[tid] for tid in order)
        return self._cp_value

    def _dist_of(self, tid: int, dist: Dict[int, float]) -> float:
        best = self._source[tid]
        edges = self._neighbors[tid]
        for pred in self._pred[tid]:
            cand = dist[pred] + edges[pred].weight_to(tid)
            if cand > best:
                best = cand
        return best

    def critical_path(self) -> Tuple[float, List[int]]:
        """Critical path length plus one witnessing node sequence.

        Uses the deterministic full Kahn order so the witness path's
        tie-breaks are stable run to run (the cached order is merely *a*
        valid order).
        """
        order = self._topological_order()
        if order is None:
            raise WTPGError("cannot take critical path of a cyclic WTPG")
        if not order:
            return 0.0, []
        dist: Dict[int, float] = {}
        via: Dict[int, Optional[int]] = {}
        for tid in order:
            best, best_pred = self._source[tid], None
            for pred in self.predecessors(tid):
                edge = self._neighbors[tid][pred]
                candidate = dist[pred] + edge.weight_to(tid)
                if candidate > best:
                    best, best_pred = candidate, pred
            dist[tid] = best
            via[tid] = best_pred
        end = max(order, key=lambda t: dist[t] + self._sink[t])
        path: List[int] = []
        node: Optional[int] = end
        while node is not None:
            path.append(node)
            node = via[node]
        path.reverse()
        return dist[end] + self._sink[end], path

    # -- copying ------------------------------------------------------------------

    def copy(self) -> "WTPG":
        """An independent deep copy, for hypothetical (what-if) evaluation."""
        clone = WTPG()
        clone._source = dict(self._source)
        clone._sink = dict(self._sink)
        clone._succ = {tid: set(s) for tid, s in self._succ.items()}
        clone._pred = {tid: set(p) for tid, p in self._pred.items()}
        # The clone's indexes hold its own edges, never the original's.
        clone._neighbors = {tid: {} for tid in self._neighbors}
        for e in self._pairs:
            edge = PairEdge(e.a, e.b, e.weight_ab, e.weight_ba, e.resolved_to)
            edge._on_weight_change = clone._note_edge_weight
            clone._pairs[edge] = None
            clone._neighbors[e.a][e.b] = edge
            clone._neighbors[e.b][e.a] = edge
            if e.resolved_to is None:
                clone._unresolved[edge] = None
        return clone

    # -- cache validation (paranoia mode) -----------------------------------------

    def cache_violations(self) -> List[str]:
        """Check every incrementally maintained cache against a fresh
        recomputation; returns human-readable problems (empty = healthy).

        Used by :mod:`repro.core.invariants` and the property suite to
        prove the Pearce–Kelly maintenance and the closure/critical-path
        memos never drift from the ground truth.
        """
        problems: List[str] = []
        fresh_order = self._topological_order()
        if self._known_cyclic is True and fresh_order is not None:
            problems.append("cached verdict says cyclic but graph is acyclic")
        if self._known_cyclic is False:
            if fresh_order is None:
                problems.append("cached verdict says acyclic but graph "
                                "has a precedence cycle")
            elif self._topo_order is None:
                problems.append("acyclic verdict without a cached order")
            else:
                order = self._topo_order
                if sorted(order) != sorted(self._source):
                    problems.append("cached topological order does not "
                                    "cover the node set")
                pos = self._topo_pos
                if pos != {tid: i for i, tid in enumerate(order)}:
                    problems.append("cached topo positions out of sync")
                else:
                    for edge in self._pairs:
                        if edge.resolved:
                            succ = edge.resolved_to
                            pred = edge.predecessor()
                            if pos[pred] >= pos[succ]:
                                problems.append(
                                    f"cached order violates T{pred}->T{succ}")
        problems.extend(self._index_violations())
        if self._closure_gen == self._structure_gen:
            for tid, cached in self._anc_cache.items():
                if tid in self._source and cached != self._closure(
                        tid, self._pred):
                    problems.append(f"stale ancestors cache for T{tid}")
            for tid, cached in self._desc_cache.items():
                if tid in self._source and cached != self._closure(
                        tid, self._succ):
                    problems.append(f"stale descendants cache for T{tid}")
        if (self._cp_dist is not None and self._cp_gen == self._structure_gen
                and not self._cp_dirty and fresh_order is not None):
            fresh: Dict[int, float] = {}
            for tid in fresh_order:
                fresh[tid] = self._dist_of(tid, fresh)
            if fresh != self._cp_dist:
                problems.append("stale critical-path dist cache")
        return problems

    def _index_violations(self) -> List[str]:
        """The pair-edge indexes against ``_pairs``: ``_neighbors`` is
        symmetric over the node set and holds exactly the edges of
        ``_pairs``, each under its own two ends; ``_unresolved`` holds
        exactly the unresolved ones."""
        problems: List[str] = []
        neighbors = self._neighbors
        if set(neighbors) != set(self._source):
            problems.append("neighbour index does not cover the node set")
        indexed: Set[PairEdge] = set()
        for tid, edges in neighbors.items():
            for other, edge in edges.items():
                indexed.add(edge)
                if neighbors.get(other, {}).get(tid) is not edge:
                    problems.append(
                        f"neighbour index not symmetric for T{tid},T{other}")
                if {edge.a, edge.b} != {tid, other}:
                    problems.append(
                        f"neighbour index files ({edge.a},{edge.b}) under "
                        f"T{tid},T{other}")
        if indexed != set(self._pairs):
            problems.append("neighbour index holds other edges than _pairs")
        if set(self._unresolved) != {edge for edge in self._pairs
                                     if not edge.resolved}:
            problems.append("unresolved-pair index out of sync")
        return problems

    @property
    def structure_generation(self) -> int:
        """Bumped only when the precedence relation changes: a node is
        added or removed, or a pair edge is resolved."""
        return self._structure_gen

    def __repr__(self) -> str:
        pairs: List[str] = []
        for edge in self._pairs:
            if edge.resolved:
                pred = edge.predecessor()
                succ = edge.resolved_to
                pairs.append(f"T{pred}->T{succ}:{edge.weight_to(succ):g}")
            else:
                pairs.append(
                    f"(T{edge.a},T{edge.b}):{edge.weight_ab:g}/{edge.weight_ba:g}")
        nodes = ", ".join(f"T{t}:{w:g}" for t, w in sorted(self._source.items()))
        return f"<WTPG nodes=[{nodes}] pairs=[{', '.join(pairs)}]>"
