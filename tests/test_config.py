"""Unit tests for SimulationParameters (Table 1)."""

import pytest

from repro import SimulationParameters
from repro.errors import ConfigurationError


class TestDefaults:
    def test_paper_stated_values(self):
        params = SimulationParameters()
        assert params.num_nodes == 8
        assert params.obj_time == 1000.0      # 1 second
        assert params.keep_time == 5000.0     # control-saving period
        assert params.sim_clocks == 2_000_000

    def test_mean_interarrival(self):
        params = SimulationParameters(arrival_rate_tps=0.5)
        assert params.mean_interarrival_clocks == 2000.0

    def test_placement_rule(self):
        params = SimulationParameters(num_partitions=16, num_nodes=8)
        assert params.node_of_partition(0) == 0
        assert params.node_of_partition(9) == 1
        with pytest.raises(ConfigurationError):
            params.node_of_partition(16)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"num_nodes": 0},
        {"num_partitions": 0},
        {"obj_time": 0},
        {"arrival_rate_tps": 0},
        {"sim_clocks": 0},
        {"num_control_nodes": 0},
        {"keep_time": -1},
        {"startup_time": -1},
        {"retry_delay": -0.5},
        {"k_conflicts": -1},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SimulationParameters(**kwargs)

    def test_with_overrides_is_a_copy(self):
        base = SimulationParameters()
        hot = base.with_overrides(arrival_rate_tps=1.0, scheduler="K2")
        assert base.arrival_rate_tps != 1.0
        assert hot.scheduler == "K2"
        assert hot.num_nodes == base.num_nodes


class TestSchedulerKwargs:
    def test_chain_gets_chaintime_and_keeptime(self):
        params = SimulationParameters(scheduler="CHAIN", chain_time=33,
                                      keep_time=77, admission_time=3)
        assert params.scheduler_kwargs() == {
            "chaintime": 33, "keeptime": 77, "admission_time": 3}

    def test_k2_gets_kwtpgtime(self):
        params = SimulationParameters(scheduler="K2", kwtpg_time=11)
        kwargs = params.scheduler_kwargs()
        assert kwargs["kwtpgtime"] == 11

    def test_c2pl_family_gets_ddtime(self):
        for name in ("C2PL", "CHAIN-C2PL", "K2-C2PL"):
            params = SimulationParameters(scheduler=name, dd_time=9,
                                          admission_time=3)
            assert params.scheduler_kwargs() == {"ddtime": 9,
                                                 "admission_time": 3}

    def test_asl_gets_admission_time(self):
        params = SimulationParameters(scheduler="ASL", admission_time=3)
        assert params.scheduler_kwargs() == {"admission_time": 3}

    def test_nodc_gets_nothing(self):
        assert SimulationParameters(scheduler="NODC").scheduler_kwargs() == {}

    def test_factory_integration(self):
        from repro import make_scheduler
        params = SimulationParameters(scheduler="CHAIN", chain_time=42)
        sched = make_scheduler(params.scheduler, **params.scheduler_kwargs())
        assert sched.chaintime == 42


class TestTable1:
    def test_table1_lists_all_paper_parameters(self):
        table = SimulationParameters().table1()
        for key in ("NumNodes", "ObjTime", "chaintime", "kwtpgtime",
                    "ddtime", "keeptime (period of control-saving)"):
            assert key in table
        assert table["ObjTime"] == "1000 ms"
        assert table["multiprogramming level"] == "infinity"
