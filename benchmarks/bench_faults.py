"""Fault-injection benchmark: throughput degradation vs abort rate.

Sweeps the fault plan's per-admission assassination probability for the
paper's two WTPG schedulers and the classic 2PL baseline, on Pattern1.
The interesting contrast: the WTPG schedulers lose throughput *linearly*
in the injected rate (aborts waste already-done bulk work but the graph
heals via node excision), while 2PL stacks injected aborts on top of its
own deadlock restarts.

Each scheduler's fault-rate sweep runs serially through the
deterministic point executor; every scheduler's test asserts that
injected faults cost it throughput, and the final parametrization
prints the full curve.
"""

import pytest

from conftest import BENCH_CLOCKS, BENCH_SEED, print_series
from repro.experiments.runner import PointSpec, run_points
from repro.faults import FaultPlan

RATE = 0.6
FAULT_RATES = (0.0, 0.1, 0.25, 0.5)
SCHEDULERS = ("CHAIN", "K2", "2PL")

_results = {}


def _spec(scheduler, fault_rate):
    plan_json = (FaultPlan(abort_rate=fault_rate).to_json()
                 if fault_rate > 0.0 else None)
    return PointSpec("pattern1", scheduler, RATE, sim_clocks=BENCH_CLOCKS,
                     seed=BENCH_SEED, fault_plan_json=plan_json)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_throughput_vs_fault_rate(benchmark, scheduler):
    specs = [_spec(scheduler, rate) for rate in FAULT_RATES]

    def sweep():
        return run_points(specs, processes=1)

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for fault_rate, metrics in zip(FAULT_RATES, points):
        _results[(scheduler, fault_rate)] = metrics
        assert metrics.commits > 0
        if fault_rate > 0.0:
            assert metrics.fault_aborts > 0
            assert metrics.restarts > 0
        else:
            assert metrics.fault_aborts == 0
    # Injected faults must actually cost throughput.
    clean, worst = points[0].throughput_tps, points[-1].throughput_tps
    assert worst <= clean, f"{scheduler}: faults improved throughput?"
    if len(_results) == len(SCHEDULERS) * len(FAULT_RATES):
        _report()


def _report():
    print_series(
        f"Throughput (TPS) vs injected abort rate (Pattern1, lambda={RATE})",
        "abort rate", list(FAULT_RATES),
        {name: [_results[(name, rate)].throughput_tps
                for rate in FAULT_RATES]
         for name in SCHEDULERS})
