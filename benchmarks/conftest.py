"""Shared helpers for the benchmark suite.

Every benchmark regenerates (a scaled-down version of) one paper artifact
and prints the series it measured, so ``pytest benchmarks/
--benchmark-only -s`` doubles as a quick reproduction report.  The full-
fidelity numbers live in EXPERIMENTS.md (generated with the paper's
2,000,000-clock horizon via the CLI).
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.config import SimulationParameters
from repro.machine import run_simulation

# The equivalence benchmarks import the test oracles from tests/oracles/.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

# Scaled horizon: ~8x shorter than the paper; fast but still contended.
BENCH_CLOCKS = 250_000.0
BENCH_SEED = 1


def run_point(scheduler: str, rate: float, workload, catalog,
              num_partitions: int, fault_plan=None, **overrides):
    """One simulation point with the benchmark defaults."""
    params = SimulationParameters(
        scheduler=scheduler, arrival_rate_tps=rate,
        sim_clocks=overrides.pop("sim_clocks", BENCH_CLOCKS),
        seed=overrides.pop("seed", BENCH_SEED),
        num_partitions=num_partitions, **overrides)
    return run_simulation(params, workload, catalog=catalog,
                          fault_plan=fault_plan)


def print_series(title: str, x_label: str, xs, series) -> None:
    from repro.analysis import format_series_table
    print(f"\n{title}")
    print(format_series_table(x_label, xs, series))
