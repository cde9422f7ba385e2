"""Plumbing tests for the experiment harness (tiny scaled runs)."""

import pytest

from repro.experiments import (ExperimentConfig, run_experiment1,
                               run_experiment2, run_experiment3,
                               run_experiment4)
from repro.experiments.base import SchedulerCurve, useful_utilization
from repro.experiments.report import (report_experiment1, report_experiment2,
                                      report_experiment3, report_experiment4)
from repro.metrics.collector import RunMetrics

TINY = dict(sim_clocks=60_000.0, seed=2, arrival_rates=(0.3, 0.6))


def metrics(rate, rt, tps):
    return RunMetrics(scheduler="X", arrival_rate_tps=rate, sim_clocks=1000,
                      arrivals=10, commits=10, mean_response_time=rt,
                      max_response_time=rt, throughput_tps=tps,
                      mean_attempts=1, dn_utilization=0.5,
                      cn_utilization=0.1, weight_messages=0, lock_retries=0)


class TestSchedulerCurve:
    def test_series_accessors(self):
        curve = SchedulerCurve("X", [metrics(0.2, 10_000, 0.2),
                                     metrics(0.4, 90_000, 0.35)])
        assert curve.arrival_rates == [0.2, 0.4]
        assert curve.response_times_seconds == [10.0, 90.0]
        assert curve.throughputs == [0.2, 0.35]

    def test_throughput_at_rt(self):
        curve = SchedulerCurve("X", [metrics(0.2, 10_000, 0.2),
                                     metrics(0.4, 130_000, 0.4)])
        # RT crosses 70k halfway: rate 0.3, tps 0.3.
        assert curve.throughput_at_rt(70_000) == pytest.approx(0.3)

    def test_saturation_rate(self):
        curve = SchedulerCurve("X", [metrics(0.2, 10_000, 0.2),
                                     metrics(0.4, 130_000, 0.4)])
        assert curve.saturation_rate(70_000) == pytest.approx(0.3)

    def test_empty_curve(self):
        assert SchedulerCurve("X").throughput_at_rt() is None

    def test_useful_utilization(self):
        own = SchedulerCurve("X", [metrics(0.2, 80_000, 0.5)])
        nodc = SchedulerCurve("NODC", [metrics(0.2, 80_000, 1.0)])
        assert useful_utilization(own, nodc) == pytest.approx(0.5)


class TestExperiment1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment1(ExperimentConfig(
            schedulers=("C2PL", "NODC"), **TINY))

    def test_curves_per_scheduler(self, result):
        assert set(result.curves) == {"C2PL", "NODC"}
        assert len(result.curves["C2PL"].points) == 2

    def test_figure_series_shapes(self, result):
        fig6 = result.figure6_series()
        fig7 = result.figure7_series()
        assert set(fig6) == set(fig7) == {"C2PL", "NODC"}
        assert len(fig6["C2PL"]) == 2

    def test_report_renders(self, result):
        text = report_experiment1(result)
        assert "Figure 6" in text and "Figure 7" in text
        assert "C2PL" in text

    def test_useful_utilization_available(self, result):
        util = result.useful_utilization("C2PL")
        assert util is None or 0 < util <= 1.5


class TestExperiment2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment2(ExperimentConfig(
            schedulers=("ASL", "K2"), **TINY), num_hots_values=(4, 8))

    def test_matrix_shape(self, result):
        assert set(result.curves) == {4, 8}
        assert set(result.curves[4]) == {"ASL", "K2"}

    def test_figure8_series(self, result):
        series = result.figure8_series()
        assert len(series["K2"]) == 2

    def test_report_renders(self, result):
        assert "Figure 8" in report_experiment2(result)


class TestExperiment3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment3(ExperimentConfig(
            schedulers=("C2PL", "K2"), **TINY))

    def test_curves(self, result):
        assert set(result.curves) == {"C2PL", "K2"}

    def test_advantage_ratio(self, result):
        ratio = result.advantage_over("K2", "C2PL")
        assert ratio is None or ratio > 0

    def test_report_renders(self, result):
        assert "Figure 9" in report_experiment3(result)


class TestExperiment4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment4(
            ExperimentConfig(schedulers=("K2", "K2-C2PL"), **TINY),
            sigmas=(0.0, 1.0))

    def test_sigma_matrix(self, result):
        assert set(result.curves) == {0.0, 1.0}
        # K2-C2PL is weight-free: measured only at sigma = 0.
        assert "K2-C2PL" in result.curves[0.0]
        assert "K2-C2PL" not in result.curves[1.0]

    def test_sigma_invariant_fallback(self, result):
        zero = result.throughput_at_rt("K2-C2PL", 0.0)
        one = result.throughput_at_rt("K2-C2PL", 1.0)
        assert zero == one  # falls back to the sigma = 0 measurement

    def test_degradation_computable(self, result):
        loss = result.degradation("K2", 1.0)
        assert loss is None or -1.0 <= loss <= 1.0

    def test_report_renders(self, result):
        assert "Figure 10" in report_experiment4(result)
