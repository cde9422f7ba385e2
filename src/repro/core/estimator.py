"""The local contention estimator ``E(q)`` (Section 3.3).

``E(q)`` estimates the degree of data/resource contention in the present
schedule *if the lock request q were granted now*:

1. Build the WTPG where q has been granted — i.e. apply the precedence
   resolutions granting q implies.  If that contradicts an existing
   resolution or creates a precedence cycle, q causes a deadlock and
   ``E(q) = infinity``.
2. Identify ``before(T)`` / ``after(T)`` (ancestors / descendants of q's
   transaction) and resolve every conflicting-edge crossing from a
   ``before`` node to an ``after`` node in that direction (those
   resolutions are forced by transitivity).
3. Delete the remaining conflicting-edges and return the critical-path
   length from T0 to Tf.

The K-WTPG scheduler grants q only when ``E(q)`` is smallest among the
conflicting declarations ``C(q)``.

The evaluation is copy-free: the hypothetical resolutions are an
in-memory delta over the *live* graph; cycle checks are per-new-edge
reachability probes (like :meth:`WTPG.creates_cycle_from`) instead of
full topological sorts, and the critical path is one memoized DFS over
the combined precedence relation.  O(V + E) per candidate with tiny
constants, no allocation of graph objects.  It is value-identical to the
paper-literal evaluation on a deep copy of the graph, which is kept as a
test oracle (``tests/oracles/estimator.py``) and compared on randomized
graphs by ``tests/core/test_estimator_equivalence.py``.

:class:`ContentionBatch` shares the overlay base across the many
candidates one scheduling decision evaluates (the request plus every
rival declaration): the base-graph acyclicity verdict is established once
and the live graph's memoized closures are reused across candidates.

This module is the sanctioned *friend* of :class:`~repro.core.wtpg.WTPG`:
the overlay reads (never writes) a fixed set of private structures —
``_cp_dist``, ``_succ``, ``_pred``, ``_source``, ``_sink``, ``_neighbors``
and ``_unresolved``.  That set is enforced by the RL003 encapsulation
lint rule (``repro.lint``); extending it requires updating the allowlist
there and the rationale in ``docs/lint.md``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.core.wtpg import WTPG, PairEdge
from repro.errors import WTPGError

INFINITE_CONTENTION = float("inf")

Resolution = Tuple[int, int]
_Adj = Dict[int, Set[int]]


def estimate_contention(wtpg: WTPG, tid: int,
                        implied_resolutions: Sequence[Resolution]) -> float:
    """``E(q)`` for a request by ``tid`` implying the given resolutions.

    ``implied_resolutions`` are the ``(predecessor, successor)`` pairs that
    granting q fixes (successor is normally another transaction whose
    conflicting declaration must now wait for ``tid`` to commit).  The
    input graph is never modified.

    Returns :data:`INFINITE_CONTENTION` when q would cause a deadlock.
    """
    return ContentionBatch(wtpg).estimate(tid, implied_resolutions)


class ContentionBatch:
    """Copy-free ``E(q)`` evaluation of many candidates over one live graph.

    Construct once per scheduling decision; :meth:`estimate` evaluates one
    candidate's hypothetical grant as a lightweight delta (overlay) view —
    the live WTPG is read, never written.
    """

    def __init__(self, wtpg: WTPG) -> None:
        self.wtpg = wtpg
        self._prime()

    def _prime(self) -> None:
        """Establish the shared base facts: acyclicity verdict, the base
        critical-path value and its per-node dist table (O(1) amortised on
        the live graph thanks to its incremental caches)."""
        wtpg = self.wtpg
        self._base_cyclic = wtpg.has_precedence_cycle()
        if self._base_cyclic:
            self._base_cp = INFINITE_CONTENTION
            self._base_dist: Dict[int, float] = {}
        else:
            self._base_cp = wtpg.critical_path_length()
            self._base_dist = wtpg._cp_dist or {}
        self._generation = wtpg.generation

    @property
    def floor(self) -> float:
        """The base graph's critical path: no :meth:`estimate` is lower.

        An overlay only adds precedence edges, whose weights are
        non-negative, so every candidate's critical path is at least the
        base one; :meth:`estimate` returns the base value or a larger
        peak (or infinity).
        """
        if self.wtpg.generation != self._generation:
            self._prime()
        return self._base_cp

    def estimate(self, tid: int,
                 implied_resolutions: Sequence[Resolution]) -> float:
        """``E(q)`` for one candidate; see :func:`estimate_contention`."""
        wtpg = self.wtpg
        if tid not in wtpg:
            raise WTPGError(f"T{tid} is not in the WTPG")
        if wtpg.generation != self._generation:
            self._prime()  # the live graph changed under the batch

        # Step 1: overlay the implied resolutions.  A pair resolved the
        # other way (in the base or earlier in this very overlay) is a
        # predicted deadlock.
        extra_succ: _Adj = {}
        extra_pred: _Adj = {}
        # Pair edge -> the successor the overlay resolves it to.
        overlaid: Dict[PairEdge, int] = {}
        new_edges: List[Resolution] = []
        for predecessor, successor in implied_resolutions:
            pair = wtpg.pair(predecessor, successor)
            if pair is None:
                raise WTPGError(
                    f"implied resolution T{predecessor}->T{successor} has no "
                    "conflicting-edge — declarations and graph are out of sync")
            if pair.resolved:
                if pair.resolved_to != successor:
                    return INFINITE_CONTENTION  # would flip a fixed order
                continue
            prior = overlaid.get(pair)
            if prior is not None:
                if prior != successor:
                    return INFINITE_CONTENTION  # contradictory implications
                continue
            overlaid[pair] = successor
            extra_succ.setdefault(predecessor, set()).add(successor)
            extra_pred.setdefault(successor, set()).add(predecessor)
            new_edges.append((predecessor, successor))

        if self._base_cyclic:
            return INFINITE_CONTENTION
        # The base is acyclic, so any cycle must pass through a new edge:
        # probe whether each edge's successor already reaches its
        # predecessor in the combined relation.
        base_succ = wtpg._succ
        base_pred = wtpg._pred
        for predecessor, successor in new_edges:
            if _reaches(base_succ, extra_succ, successor, predecessor):
                return INFINITE_CONTENTION

        # Step 2: resolve conflicting-edges crossing before(T) -> after(T).
        before = _combined_closure(base_pred, extra_pred, tid)
        after = _combined_closure(base_succ, extra_succ, tid)
        if before & after:
            return INFINITE_CONTENTION  # cycle through T
        crossing: List[Resolution] = []
        # The live index, walked in place: nothing here writes the graph.
        for edge in wtpg._unresolved:
            if edge in overlaid:
                continue
            if edge.a in before and edge.b in after:
                a, b = edge.a, edge.b
            elif edge.b in before and edge.a in after:
                a, b = edge.b, edge.a
            else:
                continue
            overlaid[edge] = b
            extra_succ.setdefault(a, set()).add(b)
            extra_pred.setdefault(b, set()).add(a)
            crossing.append((a, b))
        for a, b in crossing:
            if _reaches(base_succ, extra_succ, b, a):
                # Transitively forced resolutions closed a cycle: deadlock.
                return INFINITE_CONTENTION

        # Step 3: remaining conflicting-edges are deleted — the longest
        # T0 -> Tf path over the combined (base + overlay) precedence
        # relation.  Overlay edges only *add* precedence, and edge weights
        # are non-negative, so dist can change (grow) only at nodes
        # downstream of an overlay edge's head; everywhere else the live
        # graph's cached dist table is already the answer.  Recompute the
        # affected suffix and fold it into the cached base value.
        if not extra_succ:
            return self._base_cp
        affected: Set[int] = set()
        stack = [succ for succs in extra_succ.values() for succ in succs]
        affected.update(stack)
        while stack:
            node = stack.pop()
            for nxt in base_succ[node]:
                if nxt not in affected:
                    affected.add(nxt)
                    stack.append(nxt)
            for nxt in extra_succ.get(node, ()):
                if nxt not in affected:
                    affected.add(nxt)
                    stack.append(nxt)
        source = wtpg._source
        neighbors = wtpg._neighbors
        base_dist = self._base_dist
        dist: Dict[int, float] = {}
        empty: Set[int] = set()
        for start in affected:
            if start in dist:
                continue
            work: List[Tuple[int, bool]] = [(start, False)]
            while work:
                node, expanded = work.pop()
                if node in dist:
                    continue
                if node not in affected:
                    dist[node] = base_dist[node]
                    continue
                preds = base_pred[node] | extra_pred.get(node, empty)
                if not expanded:
                    work.append((node, True))
                    for pred in preds:
                        if pred not in dist:
                            work.append((pred, False))
                else:
                    best = source[node]
                    edges = neighbors[node]
                    for pred in preds:
                        cand = dist[pred] + edges[pred].weight_to(node)
                        if cand > best:
                            best = cand
                    dist[node] = best
        sink = wtpg._sink
        peak = max(dist[node] + sink[node] for node in affected)
        return peak if peak > self._base_cp else self._base_cp


def _reaches(base: _Adj, extra: _Adj, start: int, goal: int) -> bool:
    """Is ``goal`` reachable from ``start`` over base plus overlay edges?"""
    seen: Set[int] = set()
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        if node in seen:
            continue
        seen.add(node)
        nxt = base.get(node)
        if nxt:
            stack.extend(nxt)
        nxt = extra.get(node)
        if nxt:
            stack.extend(nxt)
    return False


def _combined_closure(base: _Adj, extra: _Adj, start: int) -> Set[int]:
    """Transitive closure of ``start`` over base plus overlay edges."""
    seen: Set[int] = set()
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt in base.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
        for nxt in extra.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    seen.discard(start)
    return seen

