"""Wrong cost declarations cost throughput, never correctness.

The paper's Experiment 4 distorts the pre-declared ``costof`` the WTPG
weights are built from while the actual bulk work stays the truth.  The
workload is the one place that sets the error (``pattern1(error_sigma=)``),
so schedulers face wrong weights — and the schedule must stay
conflict-serializable anyway, because locking (not the weights) carries
correctness.
"""

import pytest

from repro.config import SimulationParameters
from repro.core import Step, TransactionSpec
from repro.engine import RandomStreams
from repro.machine import run_simulation
from repro.workloads import pattern1, pattern1_catalog


def halve_declarations(workload):
    """``workload`` with every declared cost halved (actual costs kept):
    systematic under-declaration."""
    def under_declared(tid, streams):
        spec = workload(tid, streams)
        return TransactionSpec(tid, [
            Step(step.partition, step.mode, step.cost,
                 declared_cost=step.declared_cost * 0.5)
            for step in spec.steps], label=spec.label)
    return under_declared


class TestUnderDeclaredStillSerializable:
    @pytest.mark.parametrize("scheduler", ["CHAIN", "K2"])
    def test_under_declared_costof_keeps_schedule_serializable(
            self, scheduler):
        """Under-declaration (halved, then Experiment 4's sigma = 0.75
        error) breaks the weights' accuracy, not the schedule's
        correctness."""
        params = SimulationParameters(scheduler=scheduler,
                                      arrival_rate_tps=0.8,
                                      sim_clocks=120_000, seed=5,
                                      num_partitions=16)
        workload = halve_declarations(pattern1(error_sigma=0.75))
        result = run_simulation(params, workload,
                                catalog=pattern1_catalog(),
                                record_history=True)
        assert result.metrics.commits > 0
        result.history.check_lock_exclusion()
        result.history.check_serializable()
        result.validate()

    def test_the_workload_declares_wrong_costs(self):
        """The run above does face wrong weights: declared costs differ
        from the actual ones, which stay the pattern's."""
        workload = halve_declarations(pattern1(error_sigma=0.75))
        clean = pattern1()
        for tid in range(1, 21):
            wrong = workload(tid, RandomStreams(tid))
            right = clean(tid, RandomStreams(tid))
            assert ([step.cost for step in wrong.steps]
                    == [step.cost for step in right.steps])
            assert ([step.declared_cost for step in wrong.steps]
                    != [step.declared_cost for step in right.steps])
