"""The fault-plan DSL: validation, JSON round-trip, emptiness."""

import pytest

from repro.errors import ConfigurationError, FaultPlanError
from repro.faults import (ControlCrash, FaultPlan, NodeCrash,
                          PartitionSlowdown, RetryPolicy, StepAbort)


class TestValidation:
    def test_empty_plan_is_valid_and_empty(self):
        plan = FaultPlan()
        assert plan.empty()
        assert not plan.distorts_declarations()

    def test_any_fault_makes_plan_non_empty(self):
        assert not FaultPlan(abort_rate=0.1).empty()
        assert not FaultPlan(crashes=(NodeCrash(0, 10.0),)).empty()
        assert not FaultPlan(step_aborts=(StepAbort(1, 0),)).empty()
        assert not FaultPlan(
            slowdowns=(PartitionSlowdown(0, 2.0, 0.0, 10.0),)).empty()
        assert not FaultPlan(declared_cost_sigma=0.5).empty()
        assert not FaultPlan(declared_cost_factor=0.5).empty()
        assert not FaultPlan(cascade=True).empty()
        assert not FaultPlan(retry=RetryPolicy()).empty()

    def test_abort_rate_range(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(abort_rate=-0.1)
        with pytest.raises(FaultPlanError):
            FaultPlan(abort_rate=1.5)

    def test_crash_validation(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(crashes=(NodeCrash(-1, 10.0),))
        with pytest.raises(FaultPlanError):
            FaultPlan(crashes=(NodeCrash(0, -5.0),))
        with pytest.raises(FaultPlanError):
            FaultPlan(crashes=(NodeCrash(0, 10.0, recover_at=5.0),))

    @pytest.mark.parametrize("crashes", [
        # CN 0 crashes again while it is still down.
        (ControlCrash(0, 20_000.0, recover_at=40_000.0),
         ControlCrash(0, 30_000.0, recover_at=35_000.0)),
        # A permanent CN crash inside a window that later recovers.
        (ControlCrash(0, 20_000.0, recover_at=40_000.0),
         ControlCrash(0, 30_000.0)),
        # A second crash after a crash that never recovers.
        (ControlCrash(1, 10_000.0), ControlCrash(1, 50_000.0, 60_000.0)),
        # Back to back: a crash at the very instant of the recovery.
        (ControlCrash(0, 40_000.0, recover_at=50_000.0),
         ControlCrash(0, 20_000.0, recover_at=40_000.0)),
        # The same for a data node.
        (NodeCrash(2, 20_000.0, recover_at=40_000.0),
         NodeCrash(2, 30_000.0)),
        (NodeCrash(2, 5_000.0), NodeCrash(2, 6_000.0, 7_000.0)),
    ])
    def test_overlapping_crash_windows_rejected(self, crashes):
        with pytest.raises(FaultPlanError, match="crashes at"):
            FaultPlan(
                crashes=tuple(c for c in crashes
                              if isinstance(c, NodeCrash)),
                control_crashes=tuple(c for c in crashes
                                      if isinstance(c, ControlCrash)))

    def test_disjoint_crash_windows_allowed(self):
        plan = FaultPlan(
            crashes=(NodeCrash(2, 50_000.0), NodeCrash(2, 20_000.0, 40_000.0),
                     NodeCrash(3, 30_000.0)),
            control_crashes=(ControlCrash(0, 20_000.0, 40_000.0),
                             ControlCrash(1, 30_000.0, 35_000.0),
                             ControlCrash(0, 40_000.5)))
        assert len(plan.crashes) == 3
        assert len(plan.control_crashes) == 3

    def test_step_abort_validation(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(step_aborts=(StepAbort(1, -1),))
        with pytest.raises(FaultPlanError):
            FaultPlan(step_aborts=(StepAbort(1, 0, attempt=0),))

    def test_duplicate_step_abort_rejected(self):
        with pytest.raises(FaultPlanError, match="duplicate"):
            FaultPlan(step_aborts=(StepAbort(1, 0), StepAbort(1, 2)))

    def test_same_tid_different_attempts_allowed(self):
        plan = FaultPlan(step_aborts=(StepAbort(1, 0, attempt=1),
                                      StepAbort(1, 0, attempt=2)))
        assert len(plan.step_aborts) == 2

    def test_slowdown_validation(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(slowdowns=(PartitionSlowdown(0, 0.0, 0.0, 10.0),))
        with pytest.raises(FaultPlanError):
            FaultPlan(slowdowns=(PartitionSlowdown(0, 2.0, 10.0, 10.0),))
        with pytest.raises(FaultPlanError):
            FaultPlan(slowdowns=(PartitionSlowdown(-1, 2.0, 0.0, 10.0),))

    def test_declared_cost_validation(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(declared_cost_sigma=-0.1)
        with pytest.raises(FaultPlanError):
            FaultPlan(declared_cost_factor=0.0)

    def test_retry_validation(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(retry=RetryPolicy(kind="bogus"))
        with pytest.raises(FaultPlanError):
            FaultPlan(retry=RetryPolicy(delay=-1.0))
        with pytest.raises(FaultPlanError):
            FaultPlan(retry=RetryPolicy(kind="exponential", cap=0.0))

    def test_plan_error_is_a_configuration_error(self):
        # CLI callers that already catch ConfigurationError keep working.
        assert issubclass(FaultPlanError, ConfigurationError)


class TestRetryPolicy:
    def test_immediate_is_zero(self):
        policy = RetryPolicy(kind="immediate")
        assert policy.delay_for(1, 500.0) == 0.0
        assert policy.delay_for(9, 500.0) == 0.0

    def test_fixed_defaults_to_machine_delay(self):
        # The default policy must hand back the machine's retry_delay
        # bit-exactly: this is what keeps fault-free runs byte-identical.
        assert RetryPolicy().delay_for(1, 500.0) == 500.0
        assert RetryPolicy().delay_for(7, 500.0) == 500.0

    def test_fixed_with_explicit_delay(self):
        assert RetryPolicy(delay=123.0).delay_for(3, 500.0) == 123.0

    def test_exponential_doubles_per_attempt(self):
        policy = RetryPolicy(kind="exponential", delay=100.0)
        assert policy.delay_for(1, 500.0) == 100.0
        assert policy.delay_for(2, 500.0) == 200.0
        assert policy.delay_for(3, 500.0) == 400.0

    def test_exponential_clamped_at_cap(self):
        policy = RetryPolicy(kind="exponential", delay=100.0, cap=250.0)
        assert policy.delay_for(1, 500.0) == 100.0
        assert policy.delay_for(2, 500.0) == 200.0
        assert policy.delay_for(3, 500.0) == 250.0
        assert policy.delay_for(10, 500.0) == 250.0

    def test_exponential_without_delay_uses_machine_delay(self):
        policy = RetryPolicy(kind="exponential")
        assert policy.delay_for(2, 500.0) == 1000.0


class TestJsonRoundTrip:
    def full_plan(self):
        return FaultPlan(
            crashes=(NodeCrash(2, 10_000.0, recover_at=20_000.0),
                     NodeCrash(5, 50_000.0)),
            step_aborts=(StepAbort(7, 3), StepAbort(7, 1, attempt=2)),
            slowdowns=(PartitionSlowdown(3, 2.5, 5_000.0, 30_000.0),),
            abort_rate=0.25, declared_cost_sigma=0.5,
            declared_cost_factor=0.8, cascade=True,
            retry=RetryPolicy(kind="exponential", delay=100.0, cap=5_000.0))

    def test_round_trip_preserves_everything(self):
        plan = self.full_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_empty_round_trip(self):
        assert FaultPlan.from_json(FaultPlan().to_json()) == FaultPlan()

    def test_to_json_is_deterministic(self):
        assert self.full_plan().to_json() == self.full_plan().to_json()

    def test_from_file(self, tmp_path):
        plan = self.full_plan()
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.from_file(str(path)) == plan

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown"):
            FaultPlan.from_json('{"explosions": 3}')

    def test_malformed_entry_rejected(self):
        with pytest.raises(FaultPlanError, match="malformed"):
            FaultPlan.from_json('{"crashes": [{"nodule": 1, "at": 5}]}')

    def test_non_object_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json('[1, 2, 3]')

    def test_invalid_json_rejected(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json('{nope')

    def test_minimal_hand_written_plan(self):
        plan = FaultPlan.from_json('{"abort_rate": 0.1}')
        assert plan.abort_rate == 0.1
        assert plan.crashes == ()
        assert plan.retry is None
