"""Optimal resolution of a chain-form WTPG (Section 3.2 + appendix).

Problem: given a chain of transactions ``n[0] .. n[N-1]`` with source
weights ``r[k] = w(T0 -> n[k])`` and, between some consecutive pairs, a
conflicting edge carrying weights ``down = w(n[k] -> n[k+1])`` and
``up = w(n[k+1] -> n[k])``, choose an orientation for every *free* edge
(some may already be resolved, i.e. fixed) such that the critical path of
the resolved graph — the longest ``T0 -> Tf`` path — is minimal.

The paper gives an O(N^2) right-to-left dynamic program (``Lcomp`` /
``Rcomp`` in the appendix, partially corrupted in the scanned text).  We
implement an equivalent exact optimiser as a left-to-right DP over Pareto
frontiers, which has the same O(N^2) worst case, plus an exhaustive
reference (`brute_force_chain`) used by the property tests to prove
optimality on small instances.

Key structural fact making both DPs work: in an oriented chain, every
``T0 -> Tf`` path enters at one node, follows a maximal run of
consistently-directed edges, and exits to ``Tf`` (sink weights are zero in
the paper's model).  Because all weights are non-negative, the best path
inside a *down*-run ending at node ``k`` is summarised by one scalar
(``D`` — best ``r[s] + sum of down-weights`` so far), and inside an
*up*-run by the accumulated up-weight sum (``B`` — the best entry point of
a leftward path from a newly appended node is always the run's start).
The DP state after edge ``k`` is just (direction, scalar); Pareto pruning
on (scalar, best-achievable-max) keeps frontiers small.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import WTPGError
from repro.records import record

DOWN = "down"
UP = "up"

Orientation = Optional[str]  # DOWN, UP, or None for an absent edge


@record
class ChainPair:
    """The conflicting edge between consecutive chain nodes k and k+1.

    ``down`` is ``w(n[k] -> n[k+1])``, ``up`` is ``w(n[k+1] -> n[k])``.
    ``fixed`` pins the orientation of an already-resolved pair.
    """

    down: float
    up: float
    fixed: Orientation = None

    def __post_init__(self) -> None:
        if self.down < 0 or self.up < 0:
            raise WTPGError("chain pair weights must be non-negative")
        if self.fixed not in (None, DOWN, UP):
            raise WTPGError(f"invalid fixed orientation: {self.fixed!r}")

    @property
    def choices(self) -> Tuple[str, ...]:
        return (self.fixed,) if self.fixed else (DOWN, UP)


def _validate(source_weights: Sequence[float],
              pairs: Sequence[Optional[ChainPair]]) -> None:
    if len(pairs) != max(0, len(source_weights) - 1):
        raise WTPGError(
            f"a chain of {len(source_weights)} nodes needs "
            f"{max(0, len(source_weights) - 1)} pair slots, got {len(pairs)}")
    if any(w < 0 for w in source_weights):
        raise WTPGError("source weights must be non-negative")


def chain_critical_path(source_weights: Sequence[float],
                        pairs: Sequence[Optional[ChainPair]],
                        orientations: Sequence[Orientation]) -> float:
    """Critical path of the chain resolved by ``orientations``.

    Reference evaluator: builds the explicit DAG and runs a longest-path
    pass, independent of the run-decomposition reasoning the optimiser
    uses.  ``orientations[k]`` orients ``pairs[k]``; it must be None
    exactly where the pair is absent, and must match any fixed direction.
    """
    _validate(source_weights, pairs)
    if len(orientations) != len(pairs):
        raise WTPGError("orientations must align with pairs")
    n = len(source_weights)
    if n == 0:
        return 0.0

    incoming: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    outdeg_order: List[int] = []
    for k, (pair, orient) in enumerate(zip(pairs, orientations)):
        if pair is None:
            if orient is not None:
                raise WTPGError(f"slot {k} has no pair but an orientation")
            continue
        if orient not in (DOWN, UP):
            raise WTPGError(f"slot {k} needs an orientation")
        if pair.fixed and orient != pair.fixed:
            raise WTPGError(f"slot {k} is fixed {pair.fixed}, got {orient}")
        if orient == DOWN:
            incoming[k + 1].append((k, pair.down))
        else:
            incoming[k].append((k + 1, pair.up))

    # The oriented chain is always acyclic; a left-to-right then
    # right-to-left relaxation pass settles all distances because every
    # path is a monotone run.
    dist = [float(w) for w in source_weights]
    for k in range(n):
        for pred, weight in incoming[k]:
            if pred < k:
                dist[k] = max(dist[k], dist[pred] + weight)
    for k in range(n - 1, -1, -1):
        for pred, weight in incoming[k]:
            if pred > k:
                dist[k] = max(dist[k], dist[pred] + weight)
    return max(dist)


def brute_force_chain(source_weights: Sequence[float],
                      pairs: Sequence[Optional[ChainPair]],
                      ) -> Tuple[float, List[Orientation]]:
    """Exhaustive optimum — exponential; for tests and tiny chains only."""
    _validate(source_weights, pairs)
    slots: List[Tuple[Orientation, ...]] = [
        p.choices if p is not None else (None,) for p in pairs]
    best_len, best_orients = float("inf"), [p.fixed if p else None for p in pairs]
    for combo in product(*slots):
        length = chain_critical_path(source_weights, pairs, list(combo))
        if length < best_len:
            best_len, best_orients = length, list(combo)
    if not pairs:
        best_len = max([float(w) for w in source_weights], default=0.0)
    return best_len, best_orients


class _State:
    """One Pareto point of the DP frontier after a given edge slot."""

    __slots__ = ("direction", "scalar", "peak", "parent", "choice")

    def __init__(self, direction: str, scalar: float, peak: float,
                 parent: Optional["_State"], choice: Orientation) -> None:
        self.direction = direction  # "none", DOWN or UP
        self.scalar = scalar        # D for down-runs, B for up-runs, 0 else
        self.peak = peak            # best achievable critical path so far
        self.parent = parent
        self.choice = choice        # orientation chosen at this slot


def _prune(states: List[_State]) -> List[_State]:
    """Keep the Pareto frontier: minimal peaks over increasing scalars."""
    by_dir: Dict[str, List[_State]] = {}
    for state in states:
        by_dir.setdefault(state.direction, []).append(state)
    kept: List[_State] = []
    for group in by_dir.values():
        group.sort(key=lambda s: (s.scalar, s.peak))
        best_peak = float("inf")
        for state in group:
            if state.peak < best_peak:
                kept.append(state)
                best_peak = state.peak
    return kept


def optimise_chain(source_weights: Sequence[float],
                   pairs: Sequence[Optional[ChainPair]],
                   ) -> Tuple[float, List[Orientation]]:
    """Orientations of the free pairs minimising the critical path.

    Returns ``(optimal_length, orientations)`` where ``orientations[k]``
    is ``"down"``/``"up"`` for present pairs (fixed ones keep their
    direction) and None for absent slots.  This is the full SR-order ``W``
    of the CHAIN scheduler, restricted to one chain component.
    """
    _validate(source_weights, pairs)
    n = len(source_weights)
    if n == 0:
        return 0.0, []

    frontier = [_State("none", 0.0, float(source_weights[0]), None, None)]
    for k, pair in enumerate(pairs):
        r_here = float(source_weights[k])
        r_next = float(source_weights[k + 1])
        nxt: List[_State] = []
        for state in frontier:
            if pair is None:
                nxt.append(_State("none", 0.0, max(state.peak, r_next),
                                  state, None))
                continue
            for choice in pair.choices:
                if choice == DOWN:
                    run_best = state.scalar if state.direction == DOWN else r_here
                    new_d = max(run_best + pair.down, r_next)
                    nxt.append(_State(DOWN, new_d, max(state.peak, new_d),
                                      state, DOWN))
                else:  # UP
                    run_sum = (state.scalar + pair.up
                               if state.direction == UP else pair.up)
                    contribution = r_next + run_sum
                    nxt.append(_State(UP, run_sum,
                                      max(state.peak, contribution),
                                      state, UP))
        frontier = _prune(nxt)

    best = min(frontier, key=lambda s: s.peak)
    orientations: List[Orientation] = []
    state: Optional[_State] = best
    while state is not None and state.parent is not None:
        orientations.append(state.choice)
        state = state.parent
    orientations.reverse()
    return best.peak, orientations
