"""Tests for the mixed BAT + short-transaction workload substrate."""

import pytest

from repro import SimulationParameters, run_simulation
from repro.core import LockMode
from repro.engine import RandomStreams
from repro.errors import WorkloadError
from repro.workloads import MixedWorkload, pattern1, pattern1_catalog, \
    short_transactions
from repro.workloads.mixed import BAT_LABEL, SHORT_LABEL, relabel


class TestShortTransactions:
    def test_shape(self):
        workload = short_transactions(16)
        streams = RandomStreams(0)
        for tid in range(1, 50):
            spec = workload(tid, streams)
            assert 1 <= len(spec.steps) <= 2
            assert spec.steps[0].mode is LockMode.SHARED
            assert spec.steps[0].cost == 0.05
            assert spec.label == SHORT_LABEL

    def test_write_fraction_zero_means_read_only(self):
        workload = short_transactions(16, write_fraction=0.0)
        streams = RandomStreams(1)
        assert all(len(workload(tid, streams).steps) == 1
                   for tid in range(1, 50))

    def test_write_fraction_one_always_writes(self):
        workload = short_transactions(16, write_fraction=1.0)
        streams = RandomStreams(1)
        for tid in range(1, 20):
            steps = workload(tid, streams).steps
            assert steps[-1].mode is LockMode.EXCLUSIVE

    def test_validation(self):
        with pytest.raises(WorkloadError):
            short_transactions(1)
        with pytest.raises(WorkloadError):
            short_transactions(4, write_fraction=1.5)


class TestMixedWorkload:
    def test_labels_and_fraction(self):
        mixed = MixedWorkload(pattern1(16), short_transactions(16),
                              bat_fraction=0.3)
        streams = RandomStreams(2)
        labels = [mixed(tid, streams).label for tid in range(1, 401)]
        bats = labels.count(BAT_LABEL)
        assert labels.count(SHORT_LABEL) + bats == 400
        assert 0.2 < bats / 400 < 0.4  # close to 0.3

    def test_bat_fraction_bounds(self):
        with pytest.raises(WorkloadError):
            MixedWorkload(pattern1(16), short_transactions(16),
                          bat_fraction=1.5)

    def test_extremes(self):
        streams = RandomStreams(3)
        all_bat = MixedWorkload(pattern1(16), short_transactions(16),
                                bat_fraction=1.0)
        assert all(all_bat(t, streams).label == BAT_LABEL
                   for t in range(1, 20))
        none_bat = MixedWorkload(pattern1(16), short_transactions(16),
                                 bat_fraction=0.0)
        assert all(none_bat(t, streams).label == SHORT_LABEL
                   for t in range(1, 20))

    def test_relabel(self):
        streams = RandomStreams(4)
        labelled = relabel(pattern1(16), "batch")
        assert labelled(1, streams).label == "batch"


class TestMixedSimulation:
    def run_mixed(self, scheduler, bat_fraction=0.15):
        mixed = MixedWorkload(pattern1(16), short_transactions(16),
                              bat_fraction=bat_fraction)
        params = SimulationParameters(scheduler=scheduler,
                                      arrival_rate_tps=2.0,
                                      sim_clocks=200_000, seed=8,
                                      num_partitions=16)
        return run_simulation(params, mixed, catalog=pattern1_catalog())

    def test_per_class_metrics_produced(self):
        result = self.run_mixed("C2PL")
        by_label = result.metrics.response_time_by_label
        assert BAT_LABEL in by_label and SHORT_LABEL in by_label
        assert by_label[BAT_LABEL] > by_label[SHORT_LABEL]

    def test_short_transactions_suffer_behind_bats(self):
        """A short transaction alone needs ~150 ms; behind BAT X-locks its
        mean RT inflates by orders of magnitude — the paper's motivation
        for class-aware scheduling."""
        result = self.run_mixed("C2PL")
        short_rt = result.metrics.response_time_by_label[SHORT_LABEL]
        assert short_rt > 1000  # at least one second on average

    @pytest.mark.parametrize("scheduler", ["K2", "CHAIN"])
    def test_wtpg_schedulers_handle_mixture(self, scheduler):
        result = self.run_mixed(scheduler)
        assert result.metrics.commits > 50

    @pytest.mark.parametrize("scheduler", ["C2PL", "CHAIN", "K2"])
    def test_bats_inflate_short_rt_over_bat_free_baseline(self, scheduler):
        """Partition-granule BAT locks poison the on-line class under every
        scheduler: the same short stream without BATs is much faster."""
        baseline = self.run_mixed(scheduler, bat_fraction=0.0)
        loaded = self.run_mixed(scheduler)
        assert BAT_LABEL not in baseline.metrics.response_time_by_label
        alone = baseline.metrics.response_time_by_label[SHORT_LABEL]
        behind = loaded.metrics.response_time_by_label[SHORT_LABEL]
        assert behind > 1.5 * alone
        assert loaded.metrics.response_time_by_label[BAT_LABEL] > behind
