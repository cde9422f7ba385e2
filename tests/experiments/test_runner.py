"""Tests for the point runner: the PointSpec surface and run_points.

Cross-process determinism across schedulers, fault plans and worker
counts is covered by ``test_parallel_runner.py``.
"""

import pickle

import pytest

from repro.errors import ExperimentError
from repro.experiments.runner import (PointSpec, run_point, run_points,
                                      sweep_specs)
from repro.faults import FaultPlan, StepAbort

TINY = dict(sim_clocks=50_000.0, seed=4)


class TestPointSpec:
    def test_build_pattern1(self):
        spec = PointSpec("pattern1", "C2PL", 0.4, **TINY)
        workload, catalog, params = spec.build()
        assert params.num_partitions == 16
        assert params.scheduler == "C2PL"

    def test_build_pattern2_uses_num_hots(self):
        spec = PointSpec("pattern2", "K2", 0.4, num_hots=4, **TINY)
        _, catalog, params = spec.build()
        assert params.num_partitions == 12
        assert catalog.hot_pids == [8, 9, 10, 11]

    def test_build_pattern3(self):
        spec = PointSpec("pattern3", "ASL", 0.4, num_hots=8, **TINY)
        _, _, params = spec.build()
        assert params.num_partitions == 16

    def test_unknown_workload_rejected(self):
        with pytest.raises(ExperimentError, match="unknown workload"):
            PointSpec("pattern9", "K2", 0.4).build()

    def test_error_sigma_threads_through(self):
        spec = PointSpec("pattern1", "CHAIN", 0.4, error_sigma=0.5, **TINY)
        workload, _, _ = spec.build()
        assert workload.error_sigma == 0.5


class TestFaultPlanField:
    def test_round_trip(self):
        plan = FaultPlan(abort_rate=0.25,
                         step_aborts=(StepAbort(3, 1, attempt=1),))
        spec = PointSpec("pattern1", "K2", 0.4,
                         fault_plan_json=plan.to_json(), **TINY)
        assert spec.fault_plan() == plan

    def test_default_is_no_plan(self):
        assert PointSpec("pattern1", "K2", 0.4, **TINY).fault_plan() is None

    def test_spec_with_plan_stays_picklable_and_hashable(self):
        """The JSON form keeps specs shippable to pool workers."""
        spec = PointSpec("pattern1", "K2", 0.4, **TINY, fault_plan_json=(
            FaultPlan(abort_rate=0.1).to_json()))
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(spec) == hash(spec)

    def test_plan_applies_during_run(self):
        spec = PointSpec("pattern1", "CHAIN", 0.5, **TINY, fault_plan_json=(
            FaultPlan(abort_rate=0.4).to_json()))
        metrics = run_point(spec)
        assert metrics.fault_aborts > 0


class TestRunPoints:
    def test_single_point(self):
        metrics = run_point(PointSpec("pattern1", "NODC", 0.3, **TINY))
        assert metrics.commits > 0
        assert metrics.scheduler == "NODC"

    def test_serial_equals_parallel(self):
        specs = sweep_specs("pattern1", ["NODC", "ASL"], [0.3], **TINY)
        serial = run_points(specs, processes=1)
        parallel = run_points(specs, processes=2)
        assert [m.commits for m in serial] == [m.commits for m in parallel]
        assert ([m.mean_response_time for m in serial]
                == [m.mean_response_time for m in parallel])

    def test_results_in_input_order(self):
        specs = sweep_specs("pattern1", ["NODC", "ASL"], [0.2, 0.4], **TINY)
        results = run_points(specs, processes=2)
        assert [m.scheduler for m in results] == ["NODC", "NODC",
                                                  "ASL", "ASL"]
        assert [m.arrival_rate_tps for m in results] == [0.2, 0.4, 0.2, 0.4]

    def test_empty(self):
        assert run_points([]) == []
