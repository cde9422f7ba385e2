"""The abort/restart path: scheduler excision, cascade, fixed restart delay."""

import pytest

from repro.config import SimulationParameters
from repro.core import Step, TransactionRuntime, TransactionSpec
from repro.core.invariants import check_consistency
from repro.core.schedulers import make_scheduler
from repro.faults import FaultPlan, NodeCrash, StepAbort
from repro.machine import run_simulation
from repro.machine.cluster import Cluster
from repro.machine.trace import EventType, Tracer
from repro.workloads import pattern1, pattern1_catalog

WTPG_SCHEDULERS = ["C2PL", "CHAIN", "K2", "KWTPG", "CHAIN-C2PL", "K2-C2PL"]


def rt(tid, steps):
    return TransactionRuntime(TransactionSpec(tid, steps))


class TestSchedulerAbort:
    @pytest.mark.parametrize("name", WTPG_SCHEDULERS)
    def test_abort_excises_node_and_keeps_invariants(self, name):
        sched = make_scheduler(name)
        t1 = rt(1, [Step.write(0, 3), Step.write(1, 2)])
        t2 = rt(2, [Step.write(0, 1)])
        assert sched.admit(t1).admitted
        sched.admit(t2)  # may or may not be admitted; only t1 must die
        assert sched.abort_transaction(t1) in ((), (2,))
        assert 1 not in sched.wtpg
        assert not sched.table.is_registered(1)
        assert sched.wtpg.cache_violations() == []
        check_consistency(sched.table, sched.wtpg)

    @pytest.mark.parametrize("name", WTPG_SCHEDULERS)
    def test_survivors_commit_after_abort(self, name):
        sched = make_scheduler(name)
        t1 = rt(1, [Step.write(0, 2)])
        t2 = rt(2, [Step.write(0, 1)])
        assert sched.admit(t1).admitted
        if not sched.admit(t2).admitted:
            # Admission control deferred t2 behind t1; the abort must
            # clear the way for a fresh admission.
            sched.abort_transaction(t1)
            assert sched.admit(t2).admitted
        else:
            sched.abort_transaction(t1)
        # With the victim gone, the lone survivor's request must be
        # granted outright — nothing is left to conflict with.
        assert sched.request_lock(t2).granted
        t2.advance_step()
        sched.commit(t2)
        assert 2 not in sched.wtpg

    @pytest.mark.parametrize("name", ["2PL", "WAIT-DIE", "ASL", "NODC"])
    def test_non_wtpg_schedulers_tolerate_abort(self, name):
        sched = make_scheduler(name)
        t1 = rt(1, [Step.write(0, 1)])
        sched.admit(t1)
        assert sched.abort_transaction(t1) == ()

    def test_abort_generation_bump_invalidates_estimator_cache(self):
        sched = make_scheduler("K2")
        t1 = rt(1, [Step.write(0, 5), Step.write(1, 5)])
        t2 = rt(2, [Step.write(0, 2)])
        assert sched.admit(t1).admitted
        sched.admit(t2)
        before = sched.wtpg._structure_gen
        sched.abort_transaction(t1)
        assert sched.wtpg._structure_gen > before


class TestMachineAbortPath:
    def params(self, **overrides):
        base = dict(scheduler="K2", arrival_rate_tps=0.5, sim_clocks=60_000,
                    seed=3, num_partitions=16)
        base.update(overrides)
        return SimulationParameters(**base)

    def run(self, plan, **overrides):
        return run_simulation(self.params(**overrides), pattern1(),
                              catalog=pattern1_catalog(), fault_plan=plan,
                              record_history=True)

    def test_step_abort_kills_named_transaction_once(self):
        plan = FaultPlan(step_aborts=(StepAbort(1, 0),))
        result = self.run(plan)
        m = result.metrics
        assert m.fault_aborts == 1
        assert m.restarts >= 1
        assert m.commits > 0
        result.history.check_serializable()

    def test_abort_rate_produces_aborts_and_restarts(self):
        result = self.run(FaultPlan(abort_rate=0.4))
        m = result.metrics
        assert m.fault_aborts > 0
        # Every restart is the re-admission of an earlier abort; victims
        # assassinated near the horizon may not make it back in time.
        assert 0 < m.restarts <= m.aborts
        assert m.commits > 0
        result.history.check_serializable()

    def test_crash_aborts_resident_transactions(self):
        plan = FaultPlan(
            crashes=(NodeCrash(0, 10_000.0, recover_at=14_000.0),))
        result = self.run(plan)
        m = result.metrics
        assert m.node_crashes == 1
        assert m.crash_aborts >= 1
        kinds = [entry["kind"] for entry in m.fault_timeline]
        assert "node_crash" in kinds
        assert "node_recovery" in kinds
        result.history.check_serializable()

    def test_unrecovered_crash_still_commits_elsewhere(self):
        plan = FaultPlan(crashes=(NodeCrash(7, 2_000.0),))
        result = self.run(plan)
        assert result.metrics.commits > 0
        result.history.check_serializable()

    def test_cascade_reaches_precedence_successors(self):
        plan = FaultPlan(abort_rate=0.3, cascade=True)
        # Higher load so the WTPG actually holds conflicting pairs.
        result = self.run(plan, arrival_rate_tps=0.9, sim_clocks=120_000)
        m = result.metrics
        assert m.cascade_aborts > 0
        assert m.aborts == (m.fault_aborts + m.crash_aborts
                            + m.cascade_aborts)
        result.history.check_serializable()

    def test_timeline_entries_are_time_ordered_and_tagged(self):
        plan = FaultPlan(abort_rate=0.4,
                         crashes=(NodeCrash(1, 10_000.0,
                                            recover_at=15_000.0),))
        m = self.run(plan).metrics
        times = [entry["time"] for entry in m.fault_timeline]
        assert times == sorted(times)
        for entry in m.fault_timeline:
            assert entry["kind"] in ("abort", "node_crash", "node_recovery",
                                     "slowdown_start", "slowdown_end")

    @pytest.mark.parametrize("scheduler", ["C2PL", "CHAIN", "K2"])
    def test_restart_waits_exactly_the_retry_delay(self, scheduler):
        # With free admission and startup, a restart's next admission
        # attempt is traced (ADMITTED or ADMISSION_REJECTED) at the
        # instant it is made: retry_delay after the ABORTED record.
        params = self.params(scheduler=scheduler, retry_delay=1_234.0,
                             admission_time=0.0, startup_time=0.0)
        result = Cluster(params, pattern1(), catalog=pattern1_catalog(),
                         tracer=Tracer(),
                         fault_plan=FaultPlan(abort_rate=0.4)).run()
        restarts = []
        for tid in result.tracer.transactions():
            events = result.tracer.timeline(tid)
            restarts += [(abort, attempt)
                         for abort, attempt in zip(events, events[1:])
                         if abort.kind is EventType.ABORTED]
        assert restarts
        for abort, attempt in restarts:
            assert attempt.kind in (EventType.ADMITTED,
                                    EventType.ADMISSION_REJECTED)
            assert attempt.time == abort.time + 1_234.0
