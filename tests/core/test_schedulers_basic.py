"""Unit tests for scheduler plumbing: base classes, ASL, NODC, factory."""

import pytest

from repro.core import Step, TransactionRuntime, TransactionSpec
from repro.core.schedulers import (AtomicStaticLock, CautiousTwoPhaseLock,
                                   ChainC2PL, ChainScheduler, Decision,
                                   KConflictC2PL, KWTPGScheduler,
                                   NoDataContention, make_scheduler)
from repro.core.schedulers.base import ControlSaver
from repro.errors import SchedulerError


def rt(tid, steps):
    return TransactionRuntime(TransactionSpec(tid, steps))


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("CHAIN", ChainScheduler),
        ("K2", KWTPGScheduler),
        ("ASL", AtomicStaticLock),
        ("C2PL", CautiousTwoPhaseLock),
        ("NODC", NoDataContention),
        ("CHAIN-C2PL", ChainC2PL),
        ("K2-C2PL", KConflictC2PL),
    ])
    def test_known_names(self, name, cls):
        assert isinstance(make_scheduler(name), cls)

    def test_case_insensitive(self):
        assert isinstance(make_scheduler("c2pl"), CautiousTwoPhaseLock)

    def test_k2_has_k_2(self):
        assert make_scheduler("K2").k == 2
        assert make_scheduler("K2-C2PL").k == 2

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("OPTIMISTIC")


class TestControlSaver:
    def test_initially_stale(self):
        saver = ControlSaver(5000)
        assert saver.stale(now=0)

    def test_fresh_after_compute_until_keeptime(self):
        saver = ControlSaver(5000)
        saver.mark_computed(1000)
        assert not saver.stale(2000)
        assert not saver.stale(5999)
        assert saver.stale(6000)

    def test_invalidate_forces_staleness(self):
        saver = ControlSaver(5000)
        saver.mark_computed(1000)
        saver.invalidate()
        assert saver.stale(1001)

    def test_zero_keeptime_always_stale(self):
        saver = ControlSaver(0)
        saver.mark_computed(10)
        assert saver.stale(10)

    def test_negative_keeptime_rejected(self):
        with pytest.raises(SchedulerError):
            ControlSaver(-1)


class TestNoDataContention:
    def test_everything_granted(self):
        sched = NoDataContention()
        t1 = rt(1, [Step.write(0, 5)])
        t2 = rt(2, [Step.write(0, 5)])
        assert sched.admit(t1).admitted
        assert sched.admit(t2).admitted
        assert sched.request_lock(t1).granted
        assert sched.request_lock(t2).granted  # conflicting X: still granted
        sched.commit(t1)
        sched.commit(t2)
        assert sched.stats.commits == 2
        assert sched.stats.blocks == 0


class TestAtomicStaticLock:
    def test_admits_when_all_locks_free(self):
        sched = AtomicStaticLock()
        t1 = rt(1, [Step.read(0, 1), Step.write(1, 2)])
        assert sched.admit(t1).admitted
        # All locks are granted atomically at start.
        assert len(sched.table.granted_of(1)) == 2
        assert len(sched.table.pending_of(1)) == 0

    def test_rejects_on_any_conflicting_holder(self):
        sched = AtomicStaticLock()
        t1 = rt(1, [Step.write(5, 1)])
        t2 = rt(2, [Step.read(3, 1), Step.read(5, 1)])
        assert sched.admit(t1).admitted
        response = sched.admit(t2)
        assert not response.admitted
        assert "P5" in response.reason
        # Nothing of T2 leaked into the table.
        assert not sched.table.is_registered(2)

    def test_shared_locks_coexist(self):
        sched = AtomicStaticLock()
        assert sched.admit(rt(1, [Step.read(0, 1)])).admitted
        assert sched.admit(rt(2, [Step.read(0, 1)])).admitted

    def test_self_upgrade_allowed(self):
        sched = AtomicStaticLock()
        assert sched.admit(rt(1, [Step.read(0, 1), Step.write(0, 1)])).admitted

    def test_steps_always_granted_after_admit(self):
        sched = AtomicStaticLock()
        t1 = rt(1, [Step.read(0, 1), Step.write(1, 2)])
        sched.admit(t1)
        assert sched.request_lock(t1).granted
        t1.advance_step()
        assert sched.request_lock(t1).granted

    def test_commit_releases_for_waiters(self):
        sched = AtomicStaticLock()
        t1 = rt(1, [Step.write(0, 1)])
        t2 = rt(2, [Step.write(0, 1)])
        sched.admit(t1)
        assert not sched.admit(t2).admitted
        sched.commit(t1)
        t2.reset_for_retry()
        assert sched.admit(t2).admitted

    def test_invariant_violation_raises(self):
        sched = AtomicStaticLock()
        t1 = rt(1, [Step.write(0, 1)])
        # Bypass admit: request without holding is a scheduler bug.
        with pytest.raises(SchedulerError):
            sched.request_lock(t1)


class TestStatsAccounting:
    def test_counters_track_decisions(self):
        sched = CautiousTwoPhaseLock()
        t1 = rt(1, [Step.write(0, 1)])
        t2 = rt(2, [Step.write(0, 1)])
        sched.admit(t1, now=1)
        sched.admit(t2, now=2)
        assert sched.request_lock(t1, now=3).granted
        blocked = sched.request_lock(t2, now=4)
        assert blocked.decision is Decision.BLOCK
        assert sched.stats.grants == 1
        assert sched.stats.blocks == 1
        assert sched.stats.admissions == 2

    def test_cpu_cost_accumulates(self):
        sched = CautiousTwoPhaseLock(ddtime=7.5, admission_time=2.0)
        t1 = rt(1, [Step.write(0, 1)])
        t2 = rt(2, [Step.write(0, 1)])
        sched.admit(t1)
        sched.admit(t2)
        sched.request_lock(t1)
        # Two admission tests (2.0 each) + one deadlock test (7.5).
        assert sched.stats.control_cpu == pytest.approx(11.5)
