"""Cross-process determinism proofs for the point runner.

The guarantee under test: a grid's results are a pure function of its
point specs — worker count, worker scheduling and input order cannot
perturb a single bit.  Every test compares full
``RunMetrics.as_dict()`` payloads, not summary statistics, so even a
one-ulp drift in a histogram would fail.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments.runner import (PointSpec, resolve_workers, run_point,
                                      run_points, sweep_specs)
from repro.faults import FaultPlan

# Structural determinism needs contention, not statistical power: short
# horizons keep the full workers-1/2/4 matrix affordable in CI.
CLOCKS = 20_000.0
SCHEDULERS = ("CHAIN", "K2", "C2PL", "2PL")


def _points(fault_plan=None):
    plan_json = None if fault_plan is None else fault_plan.to_json()
    return [PointSpec("pattern1", scheduler, 0.5, sim_clocks=CLOCKS,
                      fault_plan_json=plan_json)
            for scheduler in SCHEDULERS]


def _dicts(metrics):
    return [m.as_dict() for m in metrics]


class _BrokenPoint(PointSpec):
    """A point whose construction fails inside the worker."""

    def build(self):
        raise ValueError("broken point")


class TestSweepDeterminism:
    def test_serial_equals_parallel_all_schedulers(self):
        """workers=1, 2 and 4 produce bit-identical per-point metrics."""
        baseline = _dicts(run_points(_points(), processes=1))
        for workers in (2, 4):
            assert _dicts(run_points(_points(), processes=workers)) \
                == baseline

    def test_fault_plan_grid_deterministic(self):
        """Fault injection rides the same derived streams: still identical."""
        specs = _points(FaultPlan(abort_rate=0.3))
        serial = _dicts(run_points(specs, processes=1))
        assert _dicts(run_points(specs, processes=2)) == serial
        assert any(d["fault_aborts"] > 0 for d in serial)

    def test_point_order_does_not_change_results(self):
        """Reversing the input reverses the results and changes nothing
        else; progress fires once per point."""
        forward = _dicts(run_points(_points(), processes=2))
        seen = []
        backward = run_points(list(reversed(_points())), processes=2,
                              progress=lambda spec, m: seen.append(spec))
        assert _dicts(backward) == list(reversed(forward))
        assert sorted(seen, key=_points().index) == _points()

    def test_grid_rows_follow_definition_order(self):
        """Row i is the in-process run of point i, whatever finished first."""
        rows = run_points(_points(), processes=2)
        assert _dicts(rows) == [run_point(spec).as_dict()
                                for spec in _points()]
        assert all(row.commits > 0 for row in rows)


class TestExecutor:
    def test_run_points_identical_for_any_worker_count(self):
        specs = sweep_specs("pattern1", ["CHAIN", "2PL"], [0.4, 0.6],
                            sim_clocks=CLOCKS, seed=5)
        baseline = _dicts(run_points(specs, processes=1))
        for workers in (2, 4):
            assert _dicts(run_points(specs, processes=workers)) == baseline

    def test_resolve_workers(self):
        assert resolve_workers(4, 2) == 2
        assert resolve_workers(2, 10) == 2
        assert resolve_workers(None, 3) >= 1
        assert resolve_workers(5, 0) == 1
        with pytest.raises(ExperimentError):
            resolve_workers(0, 3)

    def test_run_tasks_returns_task_order(self):
        """Results come back in input order; progress fires once per
        point, in whatever order the pool finishes them."""
        specs = _points()[:2]
        seen = []
        results = run_points(specs, processes=2,
                             progress=lambda spec, m: seen.append(spec))
        assert _dicts(results) == [run_point(spec).as_dict()
                                   for spec in specs]
        assert sorted(seen, key=specs.index) == specs

    def test_run_tasks_empty(self):
        assert run_points([], processes=4) == []

    def test_failing_point_propagates_without_a_rerun(self):
        """A point's own ValueError is not mistaken for a missing pool:
        it surfaces from the worker, and no finished point is run (or
        reported) a second time in-process."""
        specs = _points()[:2] + [_BrokenPoint("pattern1", "NODC", 0.5,
                                              sim_clocks=CLOCKS)]
        seen = []
        with pytest.raises(ValueError, match="broken point") as raised:
            run_points(specs, processes=2,
                       progress=lambda spec, m: seen.append(spec.scheduler))
        # The pool attaches the worker's traceback as the cause; an
        # in-process re-run would raise without one.
        assert raised.value.__cause__ is not None
        assert "NODC" not in seen
        assert len(seen) == len(set(seen))
