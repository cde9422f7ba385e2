"""Tests for the classic blocking-2PL-with-restarts baseline."""

from repro.core import Step, TransactionRuntime, TransactionSpec
from repro.core.schedulers import (BlockingTwoPhaseLock,
                                   CautiousTwoPhaseLock, Decision,
                                   make_scheduler)


def rt(tid, steps):
    return TransactionRuntime(TransactionSpec(tid, steps))


class TestBasicLocking:
    def test_factory_knows_2pl(self):
        assert isinstance(make_scheduler("2PL"), BlockingTwoPhaseLock)

    def test_admits_everyone(self):
        sched = BlockingTwoPhaseLock()
        for tid in range(1, 6):
            assert sched.admit(rt(tid, [Step.write(0, 1)])).admitted

    def test_grant_and_block(self):
        sched = BlockingTwoPhaseLock()
        t1 = rt(1, [Step.write(0, 1)])
        t2 = rt(2, [Step.write(0, 1)])
        sched.admit(t1)
        sched.admit(t2)
        assert sched.request_lock(t1).granted
        assert sched.request_lock(t2).decision is Decision.BLOCK

    def test_blocked_proceeds_after_commit(self):
        sched = BlockingTwoPhaseLock()
        t1 = rt(1, [Step.write(0, 1)])
        t2 = rt(2, [Step.write(0, 1)])
        sched.admit(t1)
        sched.admit(t2)
        sched.request_lock(t1)
        sched.request_lock(t2)
        t1.advance_step()
        sched.commit(t1)
        assert sched.request_lock(t2).granted

    def test_upgrade_allowed_without_rivals(self):
        sched = BlockingTwoPhaseLock()
        t1 = rt(1, [Step.read(0, 1), Step.write(0, 1)])
        sched.admit(t1)
        assert sched.request_lock(t1).granted
        t1.advance_step()
        assert sched.request_lock(t1).granted


class TestDeadlockHandling:
    def make_cross(self):
        sched = BlockingTwoPhaseLock()
        t1 = rt(1, [Step.write(0, 1), Step.write(1, 1)])
        t2 = rt(2, [Step.write(1, 1), Step.write(0, 1)])
        sched.admit(t1)
        sched.admit(t2)
        assert sched.request_lock(t1).granted      # T1 holds P0
        assert sched.request_lock(t2).granted      # T2 holds P1
        t1.advance_step()
        t2.advance_step()
        return sched, t1, t2

    def test_cross_deadlock_aborts_second_waiter(self):
        sched, t1, t2 = self.make_cross()
        # T1 requests P1: blocked by T2 (no cycle yet).
        assert sched.request_lock(t1).decision is Decision.BLOCK
        # T2 requests P0: closes the cycle -> T2 is the victim.
        response = sched.request_lock(t2)
        assert response.decision is Decision.ABORT
        assert "deadlock victim" in response.reason
        assert sched.stats.aborts == 1

    def test_victim_abort_releases_locks(self):
        sched, t1, t2 = self.make_cross()
        sched.request_lock(t1)
        sched.request_lock(t2)
        t2.mark_aborted()
        sched.abort_transaction(t2)
        t2.reset_for_retry()
        # T1's blocked request can now go through.
        assert sched.request_lock(t1).granted

    def test_victim_can_restart_and_finish(self):
        sched, t1, t2 = self.make_cross()
        sched.request_lock(t1)
        sched.request_lock(t2)
        t2.mark_aborted()
        sched.abort_transaction(t2)
        t2.reset_for_retry()
        assert sched.request_lock(t1).granted
        t1.advance_step()
        sched.commit(t1)
        assert sched.admit(t2).admitted
        assert sched.request_lock(t2).granted
        t2.advance_step()
        assert sched.request_lock(t2).granted

    def test_upgrade_deadlock_detected(self):
        """The classic S/S upgrade deadlock 2PL walks straight into."""
        sched = BlockingTwoPhaseLock()
        t1 = rt(1, [Step.read(0, 1), Step.write(0, 1)])
        t2 = rt(2, [Step.read(0, 1), Step.write(0, 1)])
        sched.admit(t1)
        sched.admit(t2)
        assert sched.request_lock(t1).granted
        assert sched.request_lock(t2).granted
        t1.advance_step()
        t2.advance_step()
        assert sched.request_lock(t1).decision is Decision.BLOCK
        assert sched.request_lock(t2).decision is Decision.ABORT


class TestWtpgSchedulerAbort:
    def test_abort_releases_declarations_and_excises_wtpg_node(self):
        sched = CautiousTwoPhaseLock()
        t1 = rt(1, [Step.write(0, 1)])
        sched.admit(t1)
        assert 1 in sched.wtpg
        assert sched.abort_transaction(t1) == ()
        assert 1 not in sched.wtpg
        assert not sched.table.is_registered(1)
        assert sched.wtpg.cache_violations() == []

    def test_abort_returns_precedence_successors(self):
        sched = CautiousTwoPhaseLock()
        t1 = rt(1, [Step.write(0, 2)])
        t2 = rt(2, [Step.write(0, 1)])
        sched.admit(t1)
        sched.admit(t2)
        assert sched.request_lock(t1).granted
        # t2's declaration on partition 0 resolves the pair edge t1 -> t2.
        assert sched.abort_transaction(t1) == (2,)
        assert 1 not in sched.wtpg
        # The survivor can now run and commit on its own.
        assert sched.request_lock(t2).granted
        t2.advance_step()
        sched.commit(t2)

    def test_abort_of_unknown_transaction_is_a_no_op(self):
        sched = CautiousTwoPhaseLock()
        t1 = rt(1, [Step.write(0, 1)])
        assert sched.abort_transaction(t1) == ()


class TestFullSimulation:
    def test_2pl_runs_and_commits_with_serializable_history(self):
        from repro import SimulationParameters, run_simulation
        from repro.workloads import pattern1, pattern1_catalog

        params = SimulationParameters(scheduler="2PL", arrival_rate_tps=0.5,
                                      sim_clocks=200_000, seed=3,
                                      num_partitions=16)
        result = run_simulation(params, pattern1(),
                                catalog=pattern1_catalog(),
                                record_history=True)
        assert result.metrics.commits > 0
        result.history.check_lock_exclusion()
        result.history.check_serializable()

    def test_2pl_wastes_work_on_pattern1(self):
        """Pattern1's upgrade pattern forces restarts: wasted objects."""
        from repro import SimulationParameters, run_simulation
        from repro.workloads import pattern1, pattern1_catalog

        params = SimulationParameters(scheduler="2PL", arrival_rate_tps=0.6,
                                      sim_clocks=300_000, seed=3,
                                      num_partitions=16)
        result = run_simulation(params, pattern1(),
                                catalog=pattern1_catalog())
        assert result.metrics.aborts > 0
        assert result.metrics.wasted_objects > 0

    def test_trace_validates_with_restarts(self):
        from repro import SimulationParameters
        from repro.machine import Cluster
        from repro.machine.trace import EventType, Tracer, validate_trace
        from repro.workloads import pattern1, pattern1_catalog

        tracer = Tracer()
        params = SimulationParameters(scheduler="2PL", arrival_rate_tps=0.6,
                                      sim_clocks=200_000, seed=3,
                                      num_partitions=16)
        Cluster(params, pattern1(), catalog=pattern1_catalog(),
                tracer=tracer).run()
        validate_trace(tracer)
        assert tracer.count(EventType.ABORTED) > 0
