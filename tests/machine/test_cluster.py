"""Integration tests: full simulations on the assembled machine."""

import pytest

from repro import SimulationParameters, run_simulation
from repro.core import Step, TransactionSpec
from repro.core.schedulers import SchedulerStats
from repro.errors import SerializationViolationError
from repro.faults import ControlCrash, FaultPlan
from repro.machine import Catalog, Cluster
from repro.workloads import (pattern1, pattern1_catalog, pattern2,
                             pattern2_catalog)

FAST = dict(sim_clocks=120_000, arrival_rate_tps=0.4, seed=3)


def single_partition_workload(tid, streams):
    return TransactionSpec(tid, [Step.write(0, 2)])


class TestBasicRuns:
    def test_runs_and_commits_transactions(self):
        params = SimulationParameters(scheduler="C2PL", **FAST)
        result = run_simulation(params, pattern1(), catalog=pattern1_catalog())
        assert result.metrics.commits > 10
        assert result.metrics.arrivals >= result.metrics.commits
        assert 0 < result.metrics.throughput_tps < 1.5

    def test_deterministic_given_seed(self):
        params = SimulationParameters(scheduler="K2", **FAST)
        a = run_simulation(params, pattern1(), catalog=pattern1_catalog())
        b = run_simulation(params, pattern1(), catalog=pattern1_catalog())
        assert a.metrics.commits == b.metrics.commits
        assert a.metrics.mean_response_time == b.metrics.mean_response_time

    def test_different_seeds_differ(self):
        base = SimulationParameters(scheduler="C2PL", **FAST)
        a = run_simulation(base, pattern1(), catalog=pattern1_catalog())
        b = run_simulation(base.with_overrides(seed=99), pattern1(),
                           catalog=pattern1_catalog())
        assert a.metrics.mean_response_time != b.metrics.mean_response_time

    @pytest.mark.parametrize("name", ["CHAIN", "K2", "ASL", "C2PL",
                                      "CHAIN-C2PL", "K2-C2PL"])
    def test_all_correct_schedulers_produce_serializable_histories(self, name):
        params = SimulationParameters(scheduler=name, **FAST)
        result = run_simulation(params, pattern1(), catalog=pattern1_catalog(),
                                record_history=True)
        assert result.metrics.commits > 0
        result.history.check_lock_exclusion()
        result.history.check_serializable()

    def test_nodc_violates_serializability_under_contention(self):
        params = SimulationParameters(scheduler="NODC", sim_clocks=200_000,
                                      arrival_rate_tps=1.0, seed=3,
                                      num_partitions=1)
        catalog = Catalog.uniform(1, size_objects=5.0, num_nodes=8)
        result = run_simulation(params, single_partition_workload,
                                catalog=catalog, record_history=True)
        with pytest.raises(SerializationViolationError):
            result.history.check_lock_exclusion()


class TestLoadBehaviour:
    def test_response_time_increases_with_load(self):
        rts = []
        for rate in (0.2, 0.9):
            params = SimulationParameters(scheduler="C2PL", sim_clocks=300_000,
                                          arrival_rate_tps=rate, seed=5)
            result = run_simulation(params, pattern1(),
                                    catalog=pattern1_catalog())
            rts.append(result.metrics.mean_response_time)
        assert rts[1] > rts[0]

    def test_nodc_throughput_tracks_arrival_rate_when_underloaded(self):
        params = SimulationParameters(scheduler="NODC", sim_clocks=400_000,
                                      arrival_rate_tps=0.5, seed=2)
        result = run_simulation(params, pattern1(), catalog=pattern1_catalog())
        assert result.metrics.throughput_tps == pytest.approx(0.5, abs=0.1)

    def test_minimum_response_time_bound(self):
        """A Pattern1 transaction needs >= 7.2 objects = 7200 clocks."""
        params = SimulationParameters(scheduler="NODC", sim_clocks=200_000,
                                      arrival_rate_tps=0.1, seed=2)
        result = run_simulation(params, pattern1(), catalog=pattern1_catalog())
        assert result.metrics.mean_response_time >= 7200

    def test_hot_set_workload_runs(self):
        params = SimulationParameters(scheduler="K2", sim_clocks=150_000,
                                      arrival_rate_tps=0.4, seed=4,
                                      num_partitions=16)
        result = run_simulation(params, pattern2(num_hots=8),
                                catalog=pattern2_catalog(num_hots=8),
                                record_history=True)
        assert result.metrics.commits > 5
        result.history.check_serializable()


class TestAccounting:
    def test_weight_messages_track_objects(self):
        """Every processed object sends one weight-adjust message."""
        params = SimulationParameters(scheduler="ASL", sim_clocks=150_000,
                                      arrival_rate_tps=0.3, seed=6)
        result = run_simulation(params, pattern1(), catalog=pattern1_catalog())
        # Pattern1 = 7.2 objects across 4 steps -> 8 quanta per txn
        # (1 + 5 + 1(0.2 rounded up... counts quanta: 1,5,1,1) = 8).
        assert result.metrics.weight_messages >= 8 * result.metrics.commits

    def test_scheduler_stats_surface_in_metrics(self):
        params = SimulationParameters(scheduler="CHAIN", **FAST)
        result = run_simulation(params, pattern1(), catalog=pattern1_catalog())
        stats = result.metrics.scheduler_stats
        assert stats["commits"] == result.metrics.commits
        assert stats["optimizations"] > 0

    @pytest.mark.parametrize("control_nodes", [1, 2])
    def test_scheduler_stats_keep_their_counter_types(self, control_nodes):
        """Per-shard sums start from int 0: an int counter reports 595,
        never 595.0, however many control nodes contributed to it."""
        params = SimulationParameters(scheduler="K2",
                                      num_control_nodes=control_nodes,
                                      **FAST)
        result = run_simulation(params, pattern1(), catalog=pattern1_catalog())
        stats = result.metrics.scheduler_stats
        declared = SchedulerStats().as_dict()
        assert list(stats) == list(declared)
        for key, value in stats.items():
            assert type(value) is type(declared[key]), key
        assert stats["admissions"] > 0

    def test_cn_utilization_positive_and_bounded(self):
        params = SimulationParameters(scheduler="C2PL", **FAST)
        result = run_simulation(params, pattern1(), catalog=pattern1_catalog())
        assert 0 < result.metrics.cn_utilization <= 1.0

    def test_warmup_discards_early_transactions(self):
        params = SimulationParameters(scheduler="NODC", sim_clocks=200_000,
                                      arrival_rate_tps=0.5, seed=2,
                                      warmup_clocks=100_000)
        warm = run_simulation(params, pattern1(), catalog=pattern1_catalog())
        cold = run_simulation(params.with_overrides(warmup_clocks=0.0),
                              pattern1(), catalog=pattern1_catalog())
        assert warm.metrics.commits < cold.metrics.commits


class TestDependencyLogging:
    @pytest.mark.parametrize("control_nodes,cn_crash,logged", [
        (1, False, False),   # the paper's machine: nothing reads a log
        (1, True, True),     # a planned CN crash replays one
        (2, False, True),    # replay differentials read every shard's
    ])
    def test_logs_follow_the_inputs(self, control_nodes, cn_crash, logged):
        params = SimulationParameters(scheduler="K2",
                                      num_control_nodes=control_nodes,
                                      **FAST)
        plan = (FaultPlan(control_crashes=(
                    ControlCrash(0, 40_000.0, recover_at=50_000.0),))
                if cn_crash else None)
        result = run_simulation(params, pattern1(),
                                catalog=pattern1_catalog(), fault_plan=plan)
        logs = [shard.log for shard in result.control_plane.shards]
        assert all((log is not None) == logged for log in logs)
        if logged:
            assert all(len(log) > 0 for log in logs)
        assert result.metrics.cn_recoveries == (1 if cn_crash else 0)
