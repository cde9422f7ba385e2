"""Tests for the intra-transaction-parallelism extension (declustering).

The paper's conclusion 4: under range partitioning, data contention
limits inter-transaction parallelism, so useful utilization stalls well
below resources; distributing files across all nodes (full declustering)
buys intra-transaction parallelism at the price of message overhead.
"""

import math

import pytest

from repro import Catalog, SimulationParameters, run_simulation
from repro.core import Step, TransactionSpec
from repro.machine.cluster import Cluster
from repro.machine.shard import declustered_shares
from repro.workloads import pattern1


def run(declustered, scheduler="NODC", rate=0.3, clocks=200_000, seed=5):
    catalog = Catalog.uniform(16, 5.0, 8, declustered=declustered)
    params = SimulationParameters(scheduler=scheduler, arrival_rate_tps=rate,
                                  sim_clocks=clocks, seed=seed,
                                  num_partitions=16)
    return run_simulation(params, pattern1(), catalog=catalog)


class TestPlacementModel:
    def test_uniform_declustered_flag(self):
        catalog = Catalog.uniform(4, 5.0, 8, declustered=True)
        assert all(catalog.partition(pid).declustered for pid in range(4))
        assert not Catalog.uniform(4, 5.0, 8).partition(0).declustered


class TestDeclusteredShares:
    """Regression: ``step.cost / n`` copies drift — n repetitions of the
    rounded quotient do not sum back to the step cost, so per-node object
    counts stopped adding up.  The telescoping split must conserve the
    total *exactly* while staying near-equal."""

    @pytest.mark.parametrize("cost", [10.0, 8.2, 0.2, 1.0, 7.0,
                                      1.0 / 3.0, 1e-7, 123.456789,
                                      5.000000000000001])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8])
    def test_shares_sum_exactly(self, cost, n):
        shares = declustered_shares(cost, n)
        assert len(shares) == n
        assert math.fsum([]) == 0.0  # anchor: fsum is exact below
        total = 0.0
        for share in shares:
            total += share
        # Conservation is in *sequential float addition* — the order the
        # dispatch loop accumulates — not merely in exact arithmetic.
        assert total == cost

    @pytest.mark.parametrize("cost", [10.0, 8.2, 0.2, 1.0 / 3.0, 123.456789])
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_shares_stay_near_equal(self, cost, n):
        shares = declustered_shares(cost, n)
        ideal = cost / n
        for share in shares:
            # Each prefix difference is within a few ulps of the ideal,
            # so declustered completion time (the max share) cannot
            # regress the near-perfect load balance of the naive split.
            assert abs(share - ideal) <= 8 * math.ulp(ideal) + 1e-300

    def test_integer_costs_split_conserves_whole_objects(self):
        shares = declustered_shares(10.0, 8)
        total = 0.0
        for share in shares:
            total += share
        assert total == 10.0
        assert max(shares) - min(shares) <= 2 * math.ulp(10.0 / 8)


class TestObjectConservation:
    @pytest.mark.parametrize("cost", [8.0, 8.2, 10.0, 7.3, 0.9, 12.5])
    def test_single_declustered_step_conserves_objects_exactly(self, cost):
        """End-to-end conservation of one declustered step: the per-node
        quanta actually processed sum back to the step cost *exactly* —
        the regression was remainder drift between the dispatched shares
        and the step's declared cost."""
        catalog = Catalog.uniform(8, 5.0, 8, declustered=True)
        params = SimulationParameters(scheduler="NODC",
                                      arrival_rate_tps=0.0001,
                                      sim_clocks=80_000, seed=1,
                                      num_partitions=8)

        def workload(tid, streams):
            return TransactionSpec(tid, [Step.read(0, cost)])

        cluster = Cluster(params, workload, catalog=catalog)
        result = cluster.run()
        assert result.metrics.commits == 1
        processed = 0.0
        for dn in cluster.data_nodes:
            processed += dn.objects_processed
        assert processed == cost  # exact, not approx

    def test_loaded_declustered_run_tracks_completed_work(self):
        """At load, cluster-wide processed objects stay consistent with
        the committed transactions' accounting — drift would compound
        over thousands of dispatches."""
        catalog = Catalog.uniform(8, 5.0, 8, declustered=True)
        params = SimulationParameters(scheduler="K2", arrival_rate_tps=0.6,
                                      sim_clocks=150_000, seed=7,
                                      num_partitions=8)
        cluster = Cluster(params, pattern1(num_partitions=8),
                          catalog=catalog)
        result = cluster.run()
        assert result.metrics.commits > 10
        processed = sum(dn.objects_processed for dn in cluster.data_nodes)
        # Committed BATs account for 7.2 objects each (Pattern1:
        # 1 + 5 + 0.2 + 1); work still in flight at the cutoff and
        # wasted attempts only add on top.
        assert processed >= result.metrics.commits * 7.2 - 1e-6


class TestSingleTransactionSpeedup:
    def one_bat(self, declustered):
        catalog = Catalog.uniform(8, 5.0, 8, declustered=declustered)
        params = SimulationParameters(scheduler="NODC",
                                      arrival_rate_tps=0.001,
                                      sim_clocks=60_000, seed=1,
                                      num_partitions=8)

        def workload(tid, streams):
            return TransactionSpec(tid, [Step.read(0, 8.0)])

        return run_simulation(params, workload, catalog=catalog).metrics

    def test_bulk_scan_parallelises_across_nodes(self):
        serial = self.one_bat(declustered=False)
        parallel = self.one_bat(declustered=True)
        # An 8-object scan takes ~8 s on one node, ~1 s over 8 nodes.
        assert serial.mean_response_time >= 8000
        assert parallel.mean_response_time < serial.mean_response_time / 4

    def test_weight_messages_identical_total_objects(self):
        serial = self.one_bat(declustered=False)
        parallel = self.one_bat(declustered=True)
        # Same objects processed either way (same commits at this rate).
        assert serial.commits == parallel.commits


class TestThroughputAndUtilization:
    def test_declustering_raises_utilization_under_load(self):
        ranged = run(False, scheduler="K2", rate=0.9).metrics
        spread = run(True, scheduler="K2", rate=0.9).metrics
        assert spread.dn_utilization > ranged.dn_utilization
        assert spread.throughput_tps > 1.2 * ranged.throughput_tps

    def test_paper_conclusion_4_high_useful_utilization(self):
        """With declustering, useful utilization can exceed 90 % of the
        NODC bound — unreachable under range partitioning (paper: ~64 %).

        At lambda = 1.2 declustered NODC saturates the data nodes and
        commits fewer BATs than arrive, so K2 must earn its ratio; at
        this rate 2PL's is about 0.03."""
        rate = 1.2

        def useful_utilization(declustered):
            nodc = run(declustered, scheduler="NODC", rate=rate).metrics
            k2 = run(declustered, scheduler="K2", rate=rate).metrics
            if declustered:
                assert nodc.dn_utilization > 0.95
                assert nodc.throughput_tps < 0.9 * rate
            return k2.throughput_tps / nodc.throughput_tps

        assert useful_utilization(False) < 0.9 < useful_utilization(True)

    def test_serializability_preserved_when_declustered(self):
        catalog = Catalog.uniform(16, 5.0, 8, declustered=True)
        params = SimulationParameters(scheduler="C2PL", arrival_rate_tps=0.6,
                                      sim_clocks=150_000, seed=3,
                                      num_partitions=16)
        result = run_simulation(params, pattern1(), catalog=catalog,
                                record_history=True)
        assert result.metrics.commits > 0
        result.history.check_lock_exclusion()
        result.history.check_serializable()
