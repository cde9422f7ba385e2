"""Tests for the Wait-Die timestamp-ordered 2PL baseline."""

import pytest

from repro.core import Step, TransactionRuntime, TransactionSpec
from repro.core.schedulers import Decision, WaitDie, make_scheduler


def rt(tid, steps):
    return TransactionRuntime(TransactionSpec(tid, steps))


class TestWaitDieRules:
    def setup_pair(self):
        """T1 admitted at t=1 (older), T2 at t=2 (younger)."""
        sched = WaitDie()
        t1 = rt(1, [Step.write(0, 1), Step.write(1, 1)])
        t2 = rt(2, [Step.write(0, 1), Step.write(1, 1)])
        sched.admit(t1, now=1)
        sched.admit(t2, now=2)
        return sched, t1, t2

    def test_factory(self):
        assert isinstance(make_scheduler("WAIT-DIE"), WaitDie)

    def test_older_waits_behind_younger_holder(self):
        sched, t1, t2 = self.setup_pair()
        assert sched.request_lock(t2, now=3).granted      # T2 takes P0
        response = sched.request_lock(t1, now=4)
        assert response.decision is Decision.BLOCK
        assert "older waiter" in response.reason

    def test_younger_dies_behind_older_holder(self):
        sched, t1, t2 = self.setup_pair()
        assert sched.request_lock(t1, now=3).granted      # T1 takes P0
        response = sched.request_lock(t2, now=4)
        assert response.decision is Decision.ABORT
        assert "dies" in response.reason

    def test_timestamp_survives_restart(self):
        """A restarted victim keeps its original timestamp, so it ages
        into the right to wait (anti-starvation)."""
        sched, t1, t2 = self.setup_pair()
        sched.request_lock(t1, now=3)
        assert sched.request_lock(t2, now=4).decision is Decision.ABORT
        t2.mark_aborted()
        sched.abort_transaction(t2, now=4)
        t2.reset_for_retry()
        # T2 re-admits much later; its timestamp is still 2.  A brand-new
        # T3 that grabs a partition is younger, so T2 *waits* behind it
        # instead of dying again.
        sched.admit(t2, now=100)
        t3 = rt(3, [Step.write(1, 1)])
        sched.admit(t3, now=101)
        assert sched.request_lock(t3, now=102).granted      # T3 holds P1
        t2.advance_step()  # T2's second step targets P1
        response = sched.request_lock(t2, now=103)
        assert response.decision is Decision.BLOCK
        assert "older waiter" in response.reason

    def test_no_conflict_grants(self):
        sched, t1, t2 = self.setup_pair()
        assert sched.request_lock(t1, now=3).granted
        t1.advance_step()
        assert sched.request_lock(t1, now=4).granted

    def test_commit_clears_timestamp(self):
        sched, t1, t2 = self.setup_pair()
        sched.request_lock(t1, now=3)
        t1.advance_step()
        sched.request_lock(t1, now=4)
        t1.advance_step()
        sched.commit(t1, now=5)
        assert 1 not in sched._timestamps


class TestFullSimulation:
    def test_wait_die_commits_with_serializable_history(self):
        from repro import SimulationParameters, run_simulation
        from repro.workloads import pattern1, pattern1_catalog

        params = SimulationParameters(scheduler="WAIT-DIE",
                                      arrival_rate_tps=0.5,
                                      sim_clocks=200_000, seed=3,
                                      num_partitions=16)
        result = run_simulation(params, pattern1(),
                                catalog=pattern1_catalog(),
                                record_history=True)
        assert result.metrics.commits > 0
        result.history.check_lock_exclusion()
        result.history.check_serializable()

    def test_wait_die_aborts_less_blindly_than_plain_2pl(self):
        """Wait-Die aborts eagerly (on any younger-vs-older conflict),
        plain 2PL only on actual wait-for cycles; on Pattern1 both waste
        work — the point of the comparison."""
        from repro import SimulationParameters, run_simulation
        from repro.workloads import pattern1, pattern1_catalog

        metrics = {}
        for name in ("2PL", "WAIT-DIE"):
            params = SimulationParameters(scheduler=name,
                                          arrival_rate_tps=0.6,
                                          sim_clocks=200_000, seed=3,
                                          num_partitions=16)
            metrics[name] = run_simulation(
                params, pattern1(), catalog=pattern1_catalog()).metrics
        assert metrics["WAIT-DIE"].aborts > 0
        assert metrics["2PL"].aborts > 0
