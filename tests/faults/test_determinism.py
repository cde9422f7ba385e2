"""Determinism regression: same seed + same plan => byte-identical runs."""

import json

import pytest

from repro.config import SimulationParameters
from repro.faults import FaultPlan, NodeCrash, PartitionSlowdown
from repro.machine.cluster import Cluster
from repro.machine.trace import Tracer
from repro.workloads import pattern1, pattern1_catalog

SCHEDULERS = ["CHAIN", "K2", "C2PL", "2PL"]

FAULT_PLAN = FaultPlan(
    crashes=(NodeCrash(2, 15_000.0, recover_at=25_000.0),),
    slowdowns=(PartitionSlowdown(3, 2.0, 5_000.0, 40_000.0),),
    abort_rate=0.25, cascade=True)


def run_once(scheduler, fault_plan):
    params = SimulationParameters(scheduler=scheduler, arrival_rate_tps=0.6,
                                  sim_clocks=60_000, seed=11,
                                  num_partitions=16)
    # Experiment 4's declared-cost error rides along on the workload.
    cluster = Cluster(params, pattern1(error_sigma=0.5),
                      catalog=pattern1_catalog(), tracer=Tracer(),
                      fault_plan=fault_plan)
    result = cluster.run()
    trace_bytes = "\n".join(e.to_json() for e in result.tracer.events)
    metrics_bytes = json.dumps(result.metrics.as_dict(), sort_keys=True)
    return trace_bytes, metrics_bytes


class TestBitIdenticalReplay:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_same_seed_same_plan_same_bytes(self, scheduler):
        first = run_once(scheduler, FAULT_PLAN)
        second = run_once(scheduler, FAULT_PLAN)
        assert first[0] == second[0], "traces diverged"
        assert first[1] == second[1], "metrics diverged"

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_plan_round_tripped_through_json_replays_identically(
            self, scheduler):
        reloaded = FaultPlan.from_json(FAULT_PLAN.to_json())
        assert run_once(scheduler, FAULT_PLAN) == \
               run_once(scheduler, reloaded)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_no_plan_and_empty_plan_are_bit_identical(self, scheduler):
        # The fault subsystem must be invisible when unused: an empty
        # plan builds no injector, draws no randomness and perturbs no
        # event ordering.
        assert run_once(scheduler, None) == run_once(scheduler, FaultPlan())

    def test_different_seed_diverges(self):
        # Sanity check that the comparison would actually catch drift.
        params_a = SimulationParameters(scheduler="K2", sim_clocks=60_000,
                                        seed=11, num_partitions=16,
                                        arrival_rate_tps=0.6)
        params_b = params_a.with_overrides(seed=12)
        results = []
        for params in (params_a, params_b):
            cluster = Cluster(params, pattern1(),
                              catalog=pattern1_catalog(), tracer=Tracer(),
                              fault_plan=FAULT_PLAN)
            result = cluster.run()
            results.append("\n".join(e.to_json()
                                     for e in result.tracer.events))
        assert results[0] != results[1]
