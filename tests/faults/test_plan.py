"""The fault-plan DSL: validation, JSON round-trip, emptiness."""

import re

import pytest

from repro.errors import ConfigurationError, FaultPlanError
from repro.faults import (ControlCrash, FaultPlan, NodeCrash,
                          PartitionSlowdown, StepAbort)


class TestValidation:
    def test_empty_plan_is_valid_and_empty(self):
        plan = FaultPlan()
        assert plan.empty()

    def test_any_fault_makes_plan_non_empty(self):
        assert not FaultPlan(abort_rate=0.1).empty()
        assert not FaultPlan(crashes=(NodeCrash(0, 10.0),)).empty()
        assert not FaultPlan(step_aborts=(StepAbort(1, 0),)).empty()
        assert not FaultPlan(
            slowdowns=(PartitionSlowdown(0, 2.0, 0.0, 10.0),)).empty()
        assert not FaultPlan(
            control_crashes=(ControlCrash(0, 10.0),)).empty()
        assert not FaultPlan(cascade=True).empty()

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

    def test_plan_error_is_a_configuration_error(self):
        # CLI callers that already catch ConfigurationError keep working.
        assert issubclass(FaultPlanError, ConfigurationError)


class TestJsonRoundTrip:
    def full_plan(self):
        return FaultPlan(
            crashes=(NodeCrash(2, 10_000.0, recover_at=20_000.0),
                     NodeCrash(5, 50_000.0)),
            step_aborts=(StepAbort(7, 3), StepAbort(7, 1, attempt=2)),
            control_crashes=(ControlCrash(1, 8_000.0, recover_at=9_000.0),),
            slowdowns=(PartitionSlowdown(3, 2.5, 5_000.0, 30_000.0),),
            abort_rate=0.25, cascade=True)

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
        assert plan.cascade is False


class TestJsonTypes:
    """Plan files are outside input: each field is checked against its
    declared type, as ``SimulationParameters.from_json`` does."""

    @pytest.mark.parametrize("text,field", [
        ('{"abort_rate": true}', "abort_rate"),
        ('{"abort_rate": "0.1"}', "abort_rate"),
        ('{"cascade": "no"}', "cascade"),
        ('{"control_crashes": [{"cn": 0.5, "at": 10}]}',
         "control_crashes[0].cn"),
        ('{"step_aborts": [{"tid": "1", "step": 0}]}', "step_aborts[0].tid"),
        ('{"crashes": [{"node": 0, "at": "5"}]}', "crashes[0].at"),
    ])
    def test_wrongly_typed_field_names_the_field(self, text, field):
        with pytest.raises(FaultPlanError, match=re.escape(repr(field))):
            FaultPlan.from_json(text)

    def test_int_accepted_where_the_field_is_a_float(self):
        plan = FaultPlan.from_json(
            '{"abort_rate": 1, "crashes": [{"node": 0, "at": 5}]}')
        assert plan.crashes == (NodeCrash(0, 5.0),)
        assert isinstance(plan.crashes[0].at, float)
        assert isinstance(plan.abort_rate, float)

    def test_null_accepted_only_where_optional(self):
        plan = FaultPlan.from_json(
            '{"crashes": [{"node": 0, "at": 5, "recover_at": null}]}')
        assert plan.crashes[0].recover_at is None
        with pytest.raises(FaultPlanError, match="'crashes\\[0\\].at'"):
            FaultPlan.from_json('{"crashes": [{"node": 0, "at": null}]}')

    def test_list_field_must_be_a_list(self):
        with pytest.raises(FaultPlanError, match="'crashes' must be a list"):
            FaultPlan.from_json('{"crashes": {"node": 0, "at": 5}}')

    def test_entry_must_be_a_complete_object(self):
        with pytest.raises(FaultPlanError, match=r"missing fields \['at'\]"):
            FaultPlan.from_json('{"crashes": [{"node": 0}]}')
        with pytest.raises(FaultPlanError, match="expected an object"):
            FaultPlan.from_json('{"slowdowns": [3]}')

    @pytest.mark.parametrize("retired", ["retry", "declared_cost_sigma",
                                         "declared_cost_factor"])
    def test_retired_fields_are_unknown(self, retired):
        """Restarts wait the machine's ``retry_delay`` and declared-cost
        error belongs to the workload (``pattern1(error_sigma=)``): plans
        that still set either are refused, not ignored."""
        with pytest.raises(FaultPlanError,
                           match=rf"unknown fault plan fields: \['{retired}'\]"):
            FaultPlan.from_json(f'{{"{retired}": null}}')
