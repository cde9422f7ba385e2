"""Differential test: overlay E(q) == the copy-based oracle's E(q).

The overlay estimator (copy-free delta view, reachability probes, DFS
longest path) must be *value-identical* — the same floats, the same
``INFINITE_CONTENTION`` verdicts — to the reference implementation
(:func:`tests.oracles.estimate_reference`) that deep-copies the graph
and runs full topological sorts, on randomized WTPGs and
implied-resolution sets.

Deliberately uses a plain seeded ``random.Random`` (not hypothesis) so
the case count is explicit and the corpus is fixed: 600 generated
scenarios, every one asserted equal.
"""

import random

import pytest

from repro.core import WTPG
from repro.core.estimator import (INFINITE_CONTENTION, ContentionBatch,
                                  estimate_contention)
from tests.oracles import estimate_reference

SEED = 20260806
NUM_CASES = 600


def random_scenario(rng):
    """A random WTPG plus a (requester, implied resolutions) candidate.

    Covers: unresolved / forward-resolved / backward-resolved pairs (the
    backward ones can create base-graph cycles), zero and non-zero source
    weights, implied resolutions in both directions (including ones that
    contradict an existing resolution — the deadlock / INF path) and
    occasional duplicate implications.
    """
    n = rng.randint(2, 12)
    g = WTPG()
    for tid in range(1, n + 1):
        weight = round(rng.uniform(0, 15), 3) if rng.random() < 0.8 else 0.0
        g.add_transaction(tid, weight)
    pairs = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if rng.random() >= 0.4:
                continue
            edge = g.ensure_pair(a, b)
            edge.raise_weight_to(b, round(rng.uniform(0, 8), 3))
            edge.raise_weight_to(a, round(rng.uniform(0, 8), 3))
            pairs.append((a, b))
            roll = rng.random()
            if roll < 0.30:
                g.resolve(a, b)      # forward: keeps low -> high acyclic
            elif roll < 0.40:
                g.resolve(b, a)      # backward: may create base cycles
    requester = rng.randint(1, n)
    implied = []
    for a, b in pairs:
        if rng.random() < 0.3:
            resolution = (a, b) if rng.random() < 0.5 else (b, a)
            implied.append(resolution)
            if rng.random() < 0.1:
                # Duplicate (sometimes contradictory) implication.
                implied.append(resolution if rng.random() < 0.7
                               else (resolution[1], resolution[0]))
    return g, requester, implied


def test_overlay_equals_reference_on_random_graphs():
    rng = random.Random(SEED)
    finite = infinite = 0
    for case in range(NUM_CASES):
        g, tid, implied = random_scenario(rng)
        snapshot = repr(g)
        overlay = estimate_contention(g, tid, implied)
        reference = estimate_reference(g, tid, implied)
        assert overlay == reference, (
            f"case {case}: overlay={overlay} reference={reference} "
            f"tid={tid} implied={implied} graph={snapshot}")
        assert repr(g) == snapshot, f"case {case}: overlay mutated the graph"
        if overlay == INFINITE_CONTENTION:
            infinite += 1
        else:
            finite += 1
    # The corpus must actually exercise both outcome classes.
    assert finite > 50
    assert infinite > 50


def test_batch_equals_reference_across_shared_base():
    """One ContentionBatch evaluating many candidates over one live graph
    (the scheduler's usage pattern) matches per-candidate reference runs."""
    rng = random.Random(SEED + 1)
    for case in range(60):
        g, _, _ = random_scenario(rng)
        batch = ContentionBatch(g)
        candidates = []
        tids = sorted(g.transactions)
        for tid in tids[: min(4, len(tids))]:
            _, _, implied = random_scenario(rng)
            implied = [(p, s) for p, s in implied
                       if g.pair(p, s) is not None]
            candidates.append((tid, implied))
        for tid, implied in candidates:
            assert batch.estimate(tid, implied) == estimate_reference(
                g, tid, implied), f"case {case}"


def test_overlay_equals_reference_after_live_mutations():
    """Interleave live-graph mutations (the incremental-maintenance paths:
    resolve, weight decrement, node churn) with estimates in both modes."""
    rng = random.Random(SEED + 2)
    for case in range(80):
        g, tid, implied = random_scenario(rng)
        # Touch the incremental caches first, as a live scheduler would.
        g.has_precedence_cycle()
        if not g.has_precedence_cycle():
            g.critical_path_length()
        for victim in sorted(g.transactions)[:2]:
            if victim != tid and rng.random() < 0.5:
                g.remove_transaction(victim)
        for node in sorted(g.transactions):
            if rng.random() < 0.4:
                g.decrement_source(node, rng.uniform(0, 3))
        implied = [(p, s) for p, s in implied
                   if p in g and s in g and g.pair(p, s) is not None]
        overlay = estimate_contention(g, tid, implied)
        reference = estimate_reference(g, tid, implied)
        assert overlay == reference, f"case {case}"
        assert not g.cache_violations(), f"case {case}"


@pytest.mark.parametrize("mode_kwargs", [{}, {"reference": True}])
def test_modes_agree_on_the_paper_example(mode_kwargs):
    """Figure 4: E(q) = 10, E(q') = 1 from the overlay (``{}``) and from
    the oracle (``{"reference": True}``)."""
    estimate = (estimate_reference if mode_kwargs.get("reference")
                else estimate_contention)
    g = WTPG()
    for tid in (4, 5, 6):
        g.add_transaction(tid, 0)
    e45 = g.ensure_pair(4, 5)
    e45.raise_weight_to(5, 1)
    g.resolve(4, 5)
    e46 = g.ensure_pair(4, 6)
    e46.raise_weight_to(6, 10)
    e46.raise_weight_to(4, 2)
    e56 = g.ensure_pair(5, 6)
    e56.raise_weight_to(6, 1)
    e56.raise_weight_to(5, 1)
    assert estimate(g, 5, [(5, 6)]) == 10
    assert estimate(g, 6, [(6, 5)]) == 1
