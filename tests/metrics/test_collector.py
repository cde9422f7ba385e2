"""Unit tests for the metrics collector and RunMetrics."""

import pytest

from repro.core import Step, TransactionRuntime, TransactionSpec
from repro.metrics import MetricsCollector


def summary(collector, sim_clocks=100_000):
    return collector.summarise(
        scheduler="X", arrival_rate_tps=0.5, sim_clocks=sim_clocks,
        dn_utilization=0, cn_utilization=0, weight_messages=0)


def committed_txn(tid, arrival, commit, label=""):
    spec = TransactionSpec(tid, [Step.read(0, 1)], label=label)
    txn = TransactionRuntime(spec, arrival_time=arrival)
    txn.commit_time = commit
    return txn


class TestCollection:
    def test_counts_and_response_times(self):
        collector = MetricsCollector()
        collector.record_arrival()
        collector.record_arrival()
        collector.record_commit(committed_txn(1, 10, 110), now=110)
        assert collector.arrivals == 2
        assert collector.commits == 1
        metrics = summary(collector)
        assert metrics.mean_response_time == 100
        assert metrics.max_response_time == 100

    def test_abort_accounting(self):
        collector = MetricsCollector()
        txn = committed_txn(1, 0, 10)
        txn.note_object_processed(3.5)
        collector.record_abort(txn)
        assert collector.aborts == 1
        assert collector.wasted_objects == 3.5

    def test_label_grouping(self):
        collector = MetricsCollector()
        collector.record_commit(committed_txn(1, 0, 100, label="bat"),
                                now=100)
        collector.record_commit(committed_txn(2, 0, 10, label="short"),
                                now=10)
        collector.record_commit(committed_txn(3, 0, 20, label="short"),
                                now=20)
        means = collector.mean_response_time_by_label()
        assert means == {"bat": 100.0, "short": 15.0}

    def test_unlabelled_not_grouped(self):
        collector = MetricsCollector()
        collector.record_commit(committed_txn(1, 0, 100), now=100)
        assert collector.mean_response_time_by_label() == {}


class TestSummarise:
    def make_summary(self, **kwargs):
        collector = MetricsCollector()
        collector.record_arrival()
        collector.record_commit(committed_txn(1, 0, 5000), now=5000)
        defaults = dict(scheduler="X", arrival_rate_tps=0.5,
                        sim_clocks=100_000, dn_utilization=0.4,
                        cn_utilization=0.1, weight_messages=7)
        defaults.update(kwargs)
        return collector.summarise(**defaults)

    def test_throughput_per_second(self):
        metrics = self.make_summary()
        assert metrics.throughput_tps == pytest.approx(1 / 100.0)

    def test_mean_rt_seconds_helper(self):
        metrics = self.make_summary()
        assert metrics.mean_response_time_seconds == 5.0

    def test_no_commits_reports_infinite_rt(self):
        collector = MetricsCollector()
        metrics = collector.summarise(
            scheduler="X", arrival_rate_tps=0.5, sim_clocks=1000,
            dn_utilization=0, cn_utilization=0, weight_messages=0)
        assert metrics.mean_response_time == float("inf")
        assert metrics.throughput_tps == 0

    def test_as_dict_round_trip(self):
        metrics = self.make_summary()
        data = metrics.as_dict()
        assert data["scheduler"] == "X"
        assert data["commits"] == 1

    def test_scheduler_stats_copied(self):
        stats = {"grants": 5}
        metrics = self.make_summary(scheduler_stats=stats)
        stats["grants"] = 99
        assert metrics.scheduler_stats["grants"] == 5
