"""Metamorphic 'simulation physics' tests of the whole machine.

These assert directional laws that must hold regardless of scheduler
internals — the kind of checks that catch unit mix-ups and accounting
bugs that pointwise tests miss.
"""

import pytest

from repro import SimulationParameters, run_simulation
from repro.workloads import pattern1, pattern1_catalog

BASE = dict(sim_clocks=200_000, seed=13)


def run(scheduler="NODC", rate=0.3, **overrides):
    kwargs = dict(BASE)
    kwargs.update(overrides)
    params = SimulationParameters(scheduler=scheduler, arrival_rate_tps=rate,
                                  num_partitions=16, **kwargs)
    return run_simulation(params, pattern1(), catalog=pattern1_catalog())


class TestCapacityLaws:
    def test_commits_never_exceed_arrivals(self):
        for scheduler in ("NODC", "C2PL", "K2"):
            metrics = run(scheduler=scheduler, rate=0.8).metrics
            assert metrics.commits <= metrics.arrivals

    def test_throughput_never_exceeds_resource_capacity(self):
        # 8 nodes / 7.2 objects = 1.11 TPS is a hard ceiling.
        metrics = run(scheduler="NODC", rate=2.0).metrics
        assert metrics.throughput_tps <= 8 / 7.2 + 0.05

    def test_utilizations_are_fractions(self):
        metrics = run(scheduler="C2PL", rate=0.7).metrics
        assert 0 <= metrics.dn_utilization <= 1
        assert 0 <= metrics.cn_utilization <= 1

    def test_response_time_at_least_service_demand(self):
        # 7.2 objects = 7200 clocks of pure service.
        metrics = run(rate=0.05).metrics
        assert metrics.mean_response_time >= 7200


class TestDirectionalLaws:
    def test_faster_objects_mean_faster_responses(self):
        slow = run(rate=0.2, obj_time=1000.0).metrics
        fast = run(rate=0.2, obj_time=500.0).metrics
        assert fast.mean_response_time < slow.mean_response_time

    def test_obj_time_scales_underloaded_rt_roughly_linearly(self):
        slow = run(rate=0.05, obj_time=1000.0).metrics
        fast = run(rate=0.05, obj_time=500.0).metrics
        ratio = slow.mean_response_time / fast.mean_response_time
        assert 1.5 < ratio < 2.5

    def test_dn_utilization_grows_with_load(self):
        light = run(rate=0.2).metrics
        heavy = run(rate=0.8).metrics
        assert heavy.dn_utilization > light.dn_utilization

    def test_retry_delay_zero_is_rejected(self):
        # Zero would let a blocked transaction re-request forever at one
        # instant — the clock could never advance — so it is invalid.
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError, match="retry_delay"):
            run(scheduler="C2PL", rate=0.5, retry_delay=0.0)

    def test_tiny_retry_delay_still_terminates(self):
        metrics = run(scheduler="C2PL", rate=0.5, retry_delay=1.0,
                      sim_clocks=60_000).metrics
        assert metrics.commits > 0

    def test_more_partitions_less_contention(self):
        """Spreading Pattern1 over more files reduces conflicts."""
        few = run(scheduler="C2PL", rate=0.5).metrics

        params = SimulationParameters(scheduler="C2PL",
                                      arrival_rate_tps=0.5,
                                      num_partitions=64, **BASE)
        many = run_simulation(params, pattern1(num_partitions=64),
                              catalog=pattern1_catalog(num_partitions=64))
        assert many.metrics.mean_response_time < few.mean_response_time


class TestSchedulerOrderingLaw:
    def test_nodc_upper_bounds_real_schedulers(self):
        nodc = run(scheduler="NODC", rate=0.8).metrics
        for scheduler in ("ASL", "C2PL", "CHAIN", "K2"):
            real = run(scheduler=scheduler, rate=0.8).metrics
            assert real.throughput_tps <= nodc.throughput_tps + 0.05
