"""DependencyLog compaction and the replay proof, record by record."""

from unittest import mock

import pytest

from repro.core import Step, TransactionSpec
from repro.core.schedulers import make_scheduler
from repro.core.wtpg import WTPG
from repro.errors import LockTableError, SchedulerError, WTPGError
from repro.machine.control_log import (
    ADMIT, EDGE, GRANT, DependencyLog, LogRecord)


def k2():
    return make_scheduler("K2")


def writers_of_p0(log):
    """Admit T1 and T2, both writing partition 0: one conflict pair."""
    log.append_admit(TransactionSpec(1, [Step.write(0, 2.0)]), 0.0)
    log.append_admit(TransactionSpec(2, [Step.write(0, 3.0)]), 1.0)


class PredecessorIndexedLog(DependencyLog):
    """A faulty log that indexes EDGE records only under their
    predecessor, so excising the successor leaves its EDGE behind."""

    def append_grant(self, tid, step_index, now, resolved=()):
        self._retain(LogRecord(GRANT, tid, now, step=step_index), (tid,))
        for predecessor, successor in resolved:
            self._retain(LogRecord(EDGE, tid, now, predecessor=predecessor,
                                   successor=successor), (predecessor,))


class TestCompaction:
    def test_commit_drops_the_tids_records_and_the_edges_naming_it(self):
        log = DependencyLog(0)
        writers_of_p0(log)
        log.append_grant(1, 0, 2.0, resolved=((1, 2),))
        assert len(log) == 4 and len(log.retained) == 4
        log.append_commit(1, 3.0)
        assert len(log) == 5   # the end LSN counts the commit
        assert [(lsn, r.kind, r.tid) for lsn, r in log.retained.items()] \
            == [(1, ADMIT, 2)]
        scheduler, lsn = log.replay(k2)
        assert lsn == 5
        assert scheduler.wtpg.transactions == {2}
        assert scheduler.wtpg.pairs() == ()

    def test_an_edge_is_dropped_when_its_successor_finishes(self):
        log = DependencyLog(0)
        writers_of_p0(log)
        log.append_grant(1, 0, 2.0, resolved=((1, 2),))
        log.append_abort(2, 3.0)
        assert not any(r.kind == EDGE for r in log.retained.values())
        assert {r.tid for r in log.retained.values()} == {1}
        log.append_commit(1, 4.0)  # its own LSNs only; the EDGE is gone
        assert log.retained == {}
        assert len(log) == 6

    def test_abort_of_a_tid_without_records_only_advances_the_lsn(self):
        log = DependencyLog(0)
        writers_of_p0(log)
        log.append_abort(7, 2.0)
        assert len(log) == 3
        assert list(log.retained) == [0, 1]

    def test_a_restarted_tid_keeps_only_its_new_attempt(self):
        log = DependencyLog(0)
        writers_of_p0(log)
        log.append_abort(1, 2.0)
        log.append_admit(TransactionSpec(1, [Step.write(0, 2.0)]), 3.0)
        assert [(lsn, r.tid) for lsn, r in log.retained.items()] \
            == [(1, 2), (3, 1)]
        scheduler, _ = log.replay(k2)
        assert scheduler.wtpg.transactions == {1, 2}


class TestReplayProof:
    def test_rebuilt_state_that_breaks_an_invariant_is_refused(self):
        """T1 holds P0 against T2's pending write, but the log lost the
        holder-first edge its grant resolved: the rebuilt lock table and
        WTPG disagree, and recovery must fail naming the CN."""
        log = DependencyLog(3)
        writers_of_p0(log)
        log.append_grant(1, 0, 2.0)  # resolved=() drops the (1, 2) edge
        with pytest.raises(SchedulerError,
                           match=r"CN 3 is inconsistent: .*holder-first"):
            log.replay(k2)

    def test_cache_violations_run_once_per_replay(self):
        log = DependencyLog(1)
        writers_of_p0(log)
        with mock.patch.object(WTPG, "cache_violations",
                               return_value=["stale topo order"]) as check:
            with pytest.raises(SchedulerError,
                               match="CN 1 is inconsistent: stale topo"):
                log.replay(k2)
        assert check.call_count == 1

    def test_replay_needs_a_wtpg_scheduler(self):
        with pytest.raises(SchedulerError, match="requires a WTPG"):
            DependencyLog(0).replay(lambda: make_scheduler("2PL"))


class TestTypedReplayFailures:
    def test_an_edge_outliving_its_successor_names_the_cn_and_lsn(self):
        """The EDGE at LSN 3 names T2, whose abort should have dropped
        it: replay must refuse it as a SchedulerError naming the CN and
        the LSN, not as the bare WTPG error."""
        log = PredecessorIndexedLog(5)
        writers_of_p0(log)
        log.append_grant(1, 0, 2.0, resolved=((1, 2),))
        log.append_abort(2, 3.0)
        assert [r.kind for r in log.retained.values()] == [ADMIT, GRANT, EDGE]
        with pytest.raises(SchedulerError,
                           match=r"CN 5 failed at LSN 3 \(edge of T1\)") as err:
            log.replay(k2)
        assert type(err.value) is SchedulerError
        assert isinstance(err.value.__cause__, WTPGError)

    def test_a_second_registration_names_the_cn_and_lsn(self):
        log = DependencyLog(2)
        writers_of_p0(log)
        log.retained[7] = log.retained[0]  # T1's ADMIT retained twice
        with pytest.raises(SchedulerError,
                           match=r"CN 2 failed at LSN 7 \(admit of T1\)") as err:
            log.replay(k2)
        assert type(err.value) is SchedulerError
        assert isinstance(err.value.__cause__, LockTableError)
