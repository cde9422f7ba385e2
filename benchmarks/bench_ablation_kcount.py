"""Ablation benchmark: K-conflict counting granularity.

The paper's Section 3.3 wording — "each lock-declaration may conflict
with K lock-declarations at most" — is ambiguous on Pattern1, where a
rival's read-then-upgrade pair contributes *two* conflicting
declarations but one transaction.  This ablation shows the consequence
(it decides the Experiment 4 hybrid ordering, see EXPERIMENTS.md):
transaction-counting reproduces the paper's K2-C2PL ≈ C2PL reading,
declaration-counting makes K2-C2PL ASL-like and stronger.
"""

import pytest

from repro import SimulationParameters
from repro.core.schedulers import KConflictC2PL, KWTPGScheduler
from repro.machine import Cluster
from repro.workloads import pattern1, pattern1_catalog

from conftest import BENCH_CLOCKS, BENCH_SEED, print_series

RATE = 0.7
MODES = ("transactions", "declarations")

_results = {}


def run_mode(factory, mode):
    params = SimulationParameters(scheduler="C2PL", arrival_rate_tps=RATE,
                                  sim_clocks=BENCH_CLOCKS, seed=BENCH_SEED,
                                  num_partitions=16)
    cluster = Cluster(params, pattern1(), catalog=pattern1_catalog(),
                      scheduler_factory=lambda: factory(mode))
    return cluster.run().metrics


@pytest.mark.parametrize("mode", MODES)
def test_k_count_mode(benchmark, mode):
    def both():
        hybrid = run_mode(
            lambda m: KConflictC2PL(k=2, k_count_mode=m), mode)
        full = run_mode(
            lambda m: KWTPGScheduler(k=2, k_count_mode=m), mode)
        return hybrid, full

    hybrid, full = benchmark.pedantic(both, rounds=1, iterations=1)
    _results[mode] = (hybrid, full)
    assert hybrid.commits > 0 and full.commits > 0
    if len(_results) == len(MODES):
        print_series(
            f"K-count ablation (Pattern1, lambda={RATE}): TPS",
            "scheduler", ["K2-C2PL", "K2"],
            {mode: [pair[0].throughput_tps, pair[1].throughput_tps]
             for mode, pair in _results.items()})
        print_series(
            "K-count ablation: admission rejects",
            "scheduler", ["K2-C2PL", "K2"],
            {mode: [pair[0].scheduler_stats.get("admission_rejects", 0),
                    pair[1].scheduler_stats.get("admission_rejects", 0)]
             for mode, pair in _results.items()})
