"""Benchmark: regenerate Figures 6 and 7 (Experiment 1, scaled).

Pattern1 arrival-rate sweep per scheduler, run serially through the
deterministic sweep executor.  The benchmark time is the cost of one
scheduler's sweep; the printed tables are the figure rows.  Expected
shape: ASL ~ CHAIN ~ K2 well above C2PL in TPS at equal rates, NODC on
top.
"""

import pytest

from conftest import BENCH_CLOCKS, BENCH_SEED, print_series
from repro.experiments.runner import run_points, sweep_specs

RATES = (0.3, 0.6, 0.9)
SCHEDULERS = ("ASL", "C2PL", "CHAIN", "K2", "NODC")

_results = {}


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_figure6_7_sweep(benchmark, scheduler):
    specs = sweep_specs("pattern1", [scheduler], RATES,
                        sim_clocks=BENCH_CLOCKS, seed=BENCH_SEED)

    def sweep():
        return run_points(specs, processes=1)

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _results[scheduler] = points
    assert all(p.commits > 0 for p in points)
    if len(_results) == len(SCHEDULERS):
        print_series(
            "Figure 6 (scaled): arrival rate vs mean RT (s)", "lambda",
            list(RATES),
            {name: [p.mean_response_time / 1000 for p in pts]
             for name, pts in _results.items()})
        print_series(
            "Figure 7 (scaled): arrival rate vs throughput (TPS)", "lambda",
            list(RATES),
            {name: [p.throughput_tps for p in pts]
             for name, pts in _results.items()})
