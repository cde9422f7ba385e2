"""Tests for the seed-replication harness."""

import pytest

from repro import SimulationParameters
from repro.errors import ExperimentError
from repro.metrics.replication import (ReplicatedMetric, ReplicationResult,
                                       replicate)
from repro.workloads import pattern1, pattern1_catalog

PARAMS = SimulationParameters(scheduler="NODC", arrival_rate_tps=0.4,
                              sim_clocks=80_000, num_partitions=16)


@pytest.fixture(scope="module")
def result():
    return replicate(PARAMS, lambda: pattern1(),
                     lambda: pattern1_catalog(), seeds=(1, 2, 3))


class TestReplicate:
    def test_one_run_per_seed(self, result):
        assert len(result.runs) == 3

    def test_seeds_vary_the_outcome(self, result):
        rts = {run.mean_response_time for run in result.runs}
        assert len(rts) > 1

    def test_metric_summary(self, result):
        tps = result.throughput
        assert isinstance(tps, ReplicatedMetric)
        assert tps.half_width >= 0
        assert tps.low <= tps.mean <= tps.high
        assert min(tps.values) <= tps.mean <= max(tps.values)

    def test_summary_is_readable(self, result):
        summary = result.summary()
        assert "throughput_tps" in summary
        assert "±" in summary["throughput_tps"]

    def test_needs_two_distinct_seeds(self):
        with pytest.raises(ExperimentError):
            replicate(PARAMS, lambda: pattern1(),
                      lambda: pattern1_catalog(), seeds=(1,))
        with pytest.raises(ExperimentError):
            replicate(PARAMS, lambda: pattern1(),
                      lambda: pattern1_catalog(), seeds=(1, 1))

    def test_str_format(self):
        metric = ReplicatedMetric(0.5, 0.1, (0.4, 0.6))
        assert str(metric) == "0.500 ± 0.100"
