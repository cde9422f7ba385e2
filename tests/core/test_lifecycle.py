"""The BAT lifecycle of the paper's §3, checked at run time.

Each clause of the retired RL013 typestate rule, called directly on a
real scheduler: a move the runtime's :class:`Phase` does not allow
raises :class:`LifecycleError`, and the legal lifecycle does not.
"""

import pytest

from repro.core import Step, TransactionRuntime, TransactionSpec
from repro.core.schedulers import make_scheduler
from repro.core.transaction import Phase
from repro.errors import LifecycleError, SchedulerError


def rt(tid, *partitions):
    return TransactionRuntime(TransactionSpec(
        tid, [Step.write(p, 1) for p in partitions]))


def admitted(tid=1, scheduler="K2"):
    sched = make_scheduler(scheduler)
    txn = rt(tid, 0)
    assert sched.admit(txn).admitted
    return sched, txn


def rejected():
    """T2 refused by K-conflict (K=0) behind T1 on the same partition."""
    sched = make_scheduler("KWTPG", k=0)
    assert sched.admit(rt(1, 0)).admitted
    txn = rt(2, 0)
    assert not sched.admit(txn).admitted
    return sched, txn


def test_the_error_is_a_scheduler_error():
    assert issubclass(LifecycleError, SchedulerError)


def test_full_lifecycle_is_legal():
    sched, txn = rejected()
    assert txn.phase is Phase.REJECTED
    txn.reset_for_retry()
    assert txn.phase is Phase.PENDING
    sched = make_scheduler("K2")
    assert sched.admit(txn).admitted
    assert txn.phase is Phase.ACTIVE
    assert sched.request_lock(txn).granted
    txn.advance_step()
    txn.mark_aborted()
    sched.abort_transaction(txn)
    assert txn.phase is Phase.ABORTED
    txn.reset_for_retry()
    assert sched.admit(txn).admitted
    assert sched.request_lock(txn).granted
    txn.advance_step()
    sched.commit(txn)
    assert txn.phase is Phase.COMMITTED
    assert txn.attempts == 2


def test_a_never_started_attempt_may_restart():
    """A rejected admission resets the coordinator's own runtime, which
    no scheduler admitted: the one restart RL013 flagged on landing."""
    txn = rt(1, 0)
    txn.reset_for_retry()
    assert txn.phase is Phase.PENDING and txn.attempts == 1


def test_commit_after_abort_raises():
    sched, txn = admitted()
    txn.mark_aborted()
    sched.abort_transaction(txn)
    with pytest.raises(LifecycleError, match="T1: commit while aborted"):
        sched.commit(txn)


def test_commit_of_a_never_admitted_runtime_raises():
    sched = make_scheduler("CHAIN")
    with pytest.raises(LifecycleError, match="commit while pending"):
        sched.commit(rt(1, 0))


def test_double_abort_raises():
    _, txn = admitted()
    txn.mark_aborted()
    with pytest.raises(LifecycleError, match="abort while aborted"):
        txn.mark_aborted()


def test_abort_of_a_rejected_or_committed_runtime_raises():
    _, txn = rejected()
    with pytest.raises(LifecycleError, match="abort while rejected"):
        txn.mark_aborted()
    sched, txn = admitted()
    sched.commit(txn)
    with pytest.raises(LifecycleError, match="abort while committed"):
        txn.mark_aborted()


def test_lock_request_on_a_rejected_runtime_raises():
    sched, txn = rejected()
    with pytest.raises(LifecycleError, match="T2: lock request while rejected"):
        sched.request_lock(txn)


@pytest.mark.parametrize("scheduler", ["2PL", "ASL", "NODC", "WAIT-DIE"])
def test_every_scheduler_checks_lock_requests(scheduler):
    sched = make_scheduler(scheduler)
    with pytest.raises(LifecycleError, match="lock request while pending"):
        sched.request_lock(rt(1, 0))


def test_restart_from_active_or_committed_raises():
    sched, txn = admitted()
    with pytest.raises(LifecycleError, match="restart while active"):
        txn.reset_for_retry()
    sched.commit(txn)
    with pytest.raises(LifecycleError, match="restart while committed"):
        txn.reset_for_retry()


def test_admit_of_a_non_pending_runtime_raises():
    sched, txn = admitted()
    with pytest.raises(LifecycleError, match="admit while active"):
        sched.admit(txn)
    sched, txn = rejected()
    stats = sched.stats.as_dict()
    with pytest.raises(LifecycleError, match="admit while rejected"):
        sched.admit(txn)
    # Refused before the scheduler looked: nothing was counted.
    assert sched.stats.as_dict() == stats
