"""Overlay vs reference E(q) microbenchmarks.

The K-WTPG scheduler evaluates E(q) for the requester and every rival in
C(q) on each non-blocked lock request, so estimator latency is the
dominant control cost at high conflict rates.  These benchmarks compare
the copy-free overlay evaluator against the deep-copy test oracle
(:func:`tests.oracles.estimate_reference`) on the same graphs and
candidate sets; the acceptance bar for the
rewrite is >= 5x at n = 256 (see BENCH_wtpg.json at the repo root).
"""

import pytest

from bench_wtpg import build_graph

from repro.core.estimator import ContentionBatch, estimate_contention
from tests.oracles import estimate_reference

SIZES = [16, 64, 256]


def candidate(g):
    """A representative request: grant the first unresolved pair's a-side,
    implying precedence over its three lowest-numbered unresolved rivals."""
    edges = g.unresolved_pairs()
    tid = edges[0].a
    implied = []
    for edge in edges:
        other = edge.b if edge.a == tid else edge.a if edge.b == tid else None
        if other is not None:
            implied.append((tid, other))
    return tid, implied[:3] or [(edges[0].a, edges[0].b)]


@pytest.mark.parametrize("n", SIZES)
def test_bench_estimator_overlay(benchmark, n):
    g = build_graph(n)
    tid, implied = candidate(g)
    value = benchmark(lambda: estimate_contention(g, tid, implied))
    assert value >= 0


@pytest.mark.parametrize("n", SIZES)
def test_bench_estimator_reference(benchmark, n):
    g = build_graph(n)
    tid, implied = candidate(g)
    value = benchmark(lambda: estimate_reference(g, tid, implied))
    assert value >= 0


@pytest.mark.parametrize("n", SIZES)
def test_bench_estimator_batch_decision(benchmark, n):
    """A whole scheduler decision: one shared batch evaluating the
    requester plus every rival — the pattern `_evaluate_grant` runs."""
    g = build_graph(n)
    tid, implied = candidate(g)
    rivals = [(e.a, [(e.a, e.b)]) for e in g.unresolved_pairs()[:8]]

    def decision():
        batch = ContentionBatch(g)
        values = [batch.estimate(tid, implied)]
        values.extend(batch.estimate(r, imp) for r, imp in rivals)
        return values

    values = benchmark(decision)
    assert all(v >= 0 for v in values)


@pytest.mark.parametrize("n", SIZES)
def test_modes_agree_on_bench_graphs(benchmark, n):
    """Sanity inside the bench suite: overlay and oracle agree here."""
    g = build_graph(n)
    tid, implied = candidate(g)
    overlay = benchmark(lambda: estimate_contention(g, tid, implied))
    assert overlay == estimate_reference(g, tid, implied)
