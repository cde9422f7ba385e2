"""Overlay vs reference E(q) microbenchmarks.

The K-WTPG scheduler evaluates E(q) for the requester and every rival in
C(q) on each non-blocked lock request, so estimator latency is the
dominant control cost at high conflict rates.  These benchmarks compare
the copy-free overlay evaluator against the deep-copy test oracle
(:func:`tests.oracles.estimate_reference`) on the same graphs and
candidate sets.  The ``benchmark``-fixture entries report timings; the
acceptance bar for the rewrite, >= 5x at n = 256, is asserted by
:func:`test_overlay_speedup_floor` with plain ``perf_counter`` timing.
"""

import time

import pytest

from bench_wtpg import build_graph

from repro.core.estimator import ContentionBatch, estimate_contention
from tests.oracles import estimate_reference

SIZES = [16, 64, 256]

FLOOR_N = 256
FLOOR_SPEEDUP = 5.0
FLOOR_ROUNDS = 5


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


def best_mean_seconds(fn, target=0.05):
    """Seconds per call: the best mean over ``FLOOR_ROUNDS`` rounds, each
    of enough calls to fill about ``target`` seconds (at least 5)."""
    start = time.perf_counter()
    fn()
    calls = max(5, int(target / max(time.perf_counter() - start, 1e-7)))
    best = float("inf")
    for _ in range(FLOOR_ROUNDS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def test_overlay_speedup_floor():
    """The overlay evaluator is >= 5x faster than the oracle at n = 256."""
    g = build_graph(FLOOR_N)
    tid, implied = candidate(g)
    overlay = best_mean_seconds(lambda: estimate_contention(g, tid, implied))
    reference = best_mean_seconds(lambda: estimate_reference(g, tid, implied))
    speedup = reference / overlay
    print(f"\nestimator speedup at n={FLOOR_N}: {speedup:.1f}x")
    assert speedup >= FLOOR_SPEEDUP, (
        f"overlay only {speedup:.2f}x faster than the oracle at "
        f"n={FLOOR_N} (floor {FLOOR_SPEEDUP}x)")
