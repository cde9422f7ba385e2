"""Extension benchmark: range partitioning vs full declustering.

The paper's conclusion 4: high data contention limits inter-transaction
parallelism of BATs, so >90 % useful utilization needs intra-transaction
parallelism — i.e. distributing files over all nodes — at the cost of
the message overhead that hurts short-transaction processing.  This
benchmark quantifies the BAT side of that trade on Pattern1, including
each scheduler's useful utilization: its TPS over NODC's TPS under the
same placement.
"""

import pytest

from repro import Catalog, SimulationParameters, run_simulation
from repro.workloads import pattern1

from conftest import BENCH_CLOCKS, BENCH_SEED, print_series

# Above the declustered machine's capacity: at lambda = 0.9 it commits
# every arrival under every scheduler, so the columns could not rank them.
RATE = 1.2
SCHEDULERS = ("K2", "C2PL", "NODC")

_results = {}


def run_placement(scheduler: str, declustered: bool):
    catalog = Catalog.uniform(16, 5.0, 8, declustered=declustered)
    params = SimulationParameters(scheduler=scheduler, arrival_rate_tps=RATE,
                                  sim_clocks=BENCH_CLOCKS, seed=BENCH_SEED,
                                  num_partitions=16)
    return run_simulation(params, pattern1(), catalog=catalog).metrics


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_placement_comparison(benchmark, scheduler):
    def compare():
        return (run_placement(scheduler, False),
                run_placement(scheduler, True))

    ranged, spread = benchmark.pedantic(compare, rounds=1, iterations=1)
    _results[scheduler] = (ranged, spread)
    assert spread.throughput_tps >= ranged.throughput_tps - 0.05
    if len(_results) == len(SCHEDULERS):
        print_series(
            f"Placement ablation (Pattern1, lambda={RATE}): TPS",
            "placement", ["range-partitioned", "declustered"],
            {name: [pair[0].throughput_tps, pair[1].throughput_tps]
             for name, pair in _results.items()})
        print_series(
            "Placement ablation: DN utilization",
            "placement", ["range-partitioned", "declustered"],
            {name: [pair[0].dn_utilization, pair[1].dn_utilization]
             for name, pair in _results.items()})
        bound = _results["NODC"]
        print_series(
            "Placement ablation: useful utilization (TPS / NODC TPS)",
            "placement", ["range-partitioned", "declustered"],
            {name: [pair[0].throughput_tps / bound[0].throughput_tps,
                    pair[1].throughput_tps / bound[1].throughput_tps]
             for name, pair in _results.items() if name != "NODC"})
