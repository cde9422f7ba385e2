"""Work-count gates for the K-WTPG grant rule, WTPG admission and the
coordinator's CPU charges.

Counts, not timings, so they hold on any host:

* a request whose ``C(q)`` is empty builds no
  :class:`~repro.core.estimator.ContentionBatch` -- on a light-load bulk
  scan that is nearly every decision;
* a contested request whose ``E(q)`` is at the critical-path floor is
  granted without evaluating its rivals: on the hot set a contested
  decision evaluates about one E, not one per candidate;
* an admitted BAT asks :meth:`LockTable.conflicting_transactions` once
  per transaction sharing one of its partitions, and never of the rest
  of the active set; a rejected one asks nothing and registers nothing,
  because admission decides before it registers;
* a control-node CPU charge resumes the coordinator once (at its end),
  not also at the grant: on a light-load bulk scan a BAT makes five
  charges, and the engine resumes about 13 generators per commit;
* a charge spread over several control nodes (multi-CN admission, the
  2PC rounds) starts no process per participant: on two CNs a BAT is
  about one process, its coordinator;
* a control-node CPU charge is one heap entry (its end, pushed at the
  claim), not also a marker at the grant: the engine schedules about
  15 entries per commit on the same run;
* a refusal that cost nothing parks until what it read changes instead
  of asking again every retry delay: fewer lock requests and resumes
  per commit on two CNs under CHAIN and on the K2 hot set;
* the light-load bulk scan's heap pushes are pinned exactly, and it
  builds no frozen dataclass while it runs: the per-BAT records are
  slotted (:mod:`repro.records`) and a BAT's unawaited end takes no
  heap entry.
"""

import sys
from collections import Counter
from unittest import mock

import pytest

from repro.config import SimulationParameters
from repro.core.estimator import ContentionBatch
from repro.core.locks import LockTable
from repro.core.schedulers import kwtpg_scheduler
from repro.core.schedulers.base import Scheduler
from repro.core.schedulers.kwtpg_scheduler import KWTPGScheduler
from repro.core.transaction import Step, TransactionSpec
from repro.engine import core
from repro.engine.core import Process
from repro.machine.cluster import Cluster
from repro.workloads import (bulk_scan_catalog, pattern1, pattern1_catalog,
                             pattern2, pattern2_catalog)

SCAN_NODES = 64


def scan_bat(tid, streams):
    """A bulk scan of one random partition, then a one-object write."""
    partition = streams.choice("bulk-scan-partition",
                               tuple(range(SCAN_NODES)))
    objects = streams.uniform("bulk-scan-length", 256.0, 768.0)
    return TransactionSpec(tid, [Step.read(partition, objects),
                                 Step.write(partition, 1.0)])


def scan_window_run():
    """Light-load K2 bulk scans on 64 nodes: BATs rarely meet."""
    params = SimulationParameters(
        scheduler="K2", arrival_rate_tps=0.002, sim_clocks=40_000_000.0,
        seed=5, num_nodes=SCAN_NODES, num_partitions=SCAN_NODES,
        obj_time=20.0)
    return Cluster(params, scan_bat, catalog=bulk_scan_catalog(
        num_partitions=SCAN_NODES, num_nodes=SCAN_NODES))


def hotset_run():
    """K2 on Experiment 2's hot set: a standing backlog of rivals."""
    params = SimulationParameters(
        scheduler="K2", arrival_rate_tps=0.45, sim_clocks=80_000.0, seed=5,
        num_partitions=16)
    return Cluster(params, pattern2(num_hots=8),
                   catalog=pattern2_catalog(num_hots=8))


def plane_run():
    """CHAIN on two control nodes: most BATs span both, so admission and
    commit (2PC) charge both CPUs."""
    params = SimulationParameters(
        scheduler="CHAIN", arrival_rate_tps=0.2, sim_clocks=150_000.0,
        seed=5, num_partitions=16, num_control_nodes=2)
    return Cluster(params, pattern1(16), catalog=pattern1_catalog())


def count_decisions(cluster):
    """Run ``cluster``; count grant decisions by whether C(q) was empty,
    and the batches built."""
    decisions = Counter()
    evaluate = KWTPGScheduler._evaluate_grant

    def counted(self, txn, implied, rivals, now):
        decisions["contested" if rivals else "uncontested"] += 1
        return evaluate(self, txn, implied, rivals, now)

    with mock.patch.object(KWTPGScheduler, "_evaluate_grant", counted), \
            mock.patch.object(kwtpg_scheduler, "ContentionBatch",
                              wraps=ContentionBatch) as batches:
        cluster.run()
    return decisions, batches.call_count


def test_uncontested_decisions_build_no_batch():
    scan, batches = count_decisions(scan_window_run())
    assert batches == scan["contested"], (scan, batches)
    # The bulk scan is the bypass case: almost nothing is contested.
    assert scan["contested"] * 20 < scan["uncontested"], scan
    hot, batches = count_decisions(hotset_run())
    assert batches == hot["contested"], (hot, batches)
    assert hot["contested"] > 0 and hot["uncontested"] > 0, hot


#: ``ContentionBatch.estimate`` calls per contested decision on
#: :func:`hotset_run`: 1.05 when a request at the critical-path floor
#: skips its rivals, 2.38 when every rival was evaluated.
MAX_ESTIMATES_PER_CONTESTED_DECISION = 1.3


def test_contested_decisions_skip_dominated_rivals():
    counts = Counter()
    estimate = ContentionBatch.estimate
    grant_if_minimal = KWTPGScheduler._grant_if_minimal

    def counted_estimate(self, tid, implied):
        counts["estimates"] += 1
        return estimate(self, tid, implied)

    def counted_decision(self, txn, implied, rivals, now):
        counts["decisions"] += 1
        return grant_if_minimal(self, txn, implied, rivals, now)

    with mock.patch.object(ContentionBatch, "estimate", counted_estimate), \
            mock.patch.object(KWTPGScheduler, "_grant_if_minimal",
                              counted_decision):
        hotset_run().run()
    assert counts["decisions"] > 20, dict(counts)
    assert (counts["estimates"] / counts["decisions"]
            <= MAX_ESTIMATES_PER_CONTESTED_DECISION), dict(counts)


def test_admission_asks_only_partition_sharers():
    cluster = hotset_run()
    asked = Counter()
    conflicting = LockTable.conflicting_transactions
    admit = KWTPGScheduler.admit

    def counted_conflicts(self, spec_a, tid_b):
        asked["calls"] += 1
        return conflicting(self, spec_a, tid_b)

    def counted_admit(self, txn, now=0.0):
        table = self.table
        active = len(table.active_transactions)
        partitions = set(txn.spec.partitions)
        sharers = {decl.tid for tid in table.active_transactions
                   for decl in table.declarations_of(tid)
                   if decl.partition in partitions}
        before = asked["calls"]
        response = admit(self, txn, now)
        # A rejected BAT is judged before any partner query.
        expected = len(sharers) if response.admitted else 0
        assert asked["calls"] - before == expected, (
            f"T{txn.tid} (admitted: {response.admitted}): "
            f"{asked['calls'] - before} conflict queries for "
            f"{len(sharers)} partition sharers")
        asked["sharers"] += len(sharers)
        asked["active"] += active
        asked["admissions"] += 1
        asked["rejections"] += not response.admitted
        return response

    with mock.patch.object(LockTable, "conflicting_transactions",
                           counted_conflicts), \
            mock.patch.object(KWTPGScheduler, "admit", counted_admit):
        cluster.run()
    assert asked["admissions"] > 100 and asked["rejections"] > 20, dict(asked)
    # The index bites: fewer queries than active transactions seen.
    assert asked["sharers"] < asked["active"], dict(asked)


#: ``LockTable.register`` calls per commit on :func:`hotset_run`: 1.34
#: when admission decides before it registers (39 registrations, 29
#: commits, the rest still running at the cutoff), 4.00 when every
#: admission test registered the BAT and unregistered a rejected one.
MAX_REGISTERS_PER_COMMIT = 1.5


def test_rejected_admissions_register_nothing():
    counts = Counter()
    register = LockTable.register

    def counted(self, *args):
        counts["register"] += 1
        return register(self, *args)

    with mock.patch.object(LockTable, "register", counted):
        result = hotset_run().run()
    commits = result.metrics.commits
    assert commits > 20 and result.scheduler.stats.admission_rejects > commits
    assert counts["register"] / commits <= MAX_REGISTERS_PER_COMMIT, (
        dict(counts), commits)


#: Generator resumes per commit on :func:`scan_window_run`: 13.16 with
#: one-event CPU holds, 18.16 when each charge was resumed at its grant.
MAX_RESUMES_PER_COMMIT = 13.3


def test_cpu_charges_resume_the_coordinator_once():
    cluster = scan_window_run()
    resumes = Counter()
    resume = Process._resume

    def counted(self, event):
        resumes["calls"] += 1
        return resume(self, event)

    with mock.patch.object(Process, "_resume", counted):
        result = cluster.run()
    commits = result.metrics.commits
    assert commits > 50
    assert resumes["calls"] / commits <= MAX_RESUMES_PER_COMMIT, (
        resumes["calls"], commits)


#: Processes started and generator resumes per commit on
#: :func:`plane_run`: 1.14 and 26.00 when every charge is claimed at its
#: decision and waited on directly and a zero-cost refusal parks, 28.36
#: when such a refusal polled every retry delay, 5.57 and 37.21 when
#: each participant's charge ran in a process of its own.
MAX_PLANE_PROCESSES_PER_COMMIT = 1.3
MAX_PLANE_RESUMES_PER_COMMIT = 27.0


def test_multi_cn_charges_start_no_process():
    cluster = plane_run()
    counts = Counter()
    start, resume = Process.__init__, Process._resume

    def counted_start(self, env, generator):
        counts["processes"] += 1
        start(self, env, generator)

    def counted_resume(self, event):
        counts["resumes"] += 1
        return resume(self, event)

    with mock.patch.object(Process, "__init__", counted_start), \
            mock.patch.object(Process, "_resume", counted_resume):
        result = cluster.run()
    commits = result.metrics.commits
    assert commits > 20 and result.metrics.twopc_rounds > 0
    assert counts["processes"] / commits <= MAX_PLANE_PROCESSES_PER_COMMIT, (
        dict(counts), commits)
    assert counts["resumes"] / commits <= MAX_PLANE_RESUMES_PER_COMMIT, (
        dict(counts), commits)


#: Heap entries (schedule order draws) per commit on
#: :func:`scan_window_run`: 14.86 with closed-form CPU charges, 19.86
#: when each charge also pushed a marker at its grant.
MAX_HEAP_ENTRIES_PER_COMMIT = 15.0


def test_cpu_charges_push_one_heap_entry():
    cluster = scan_window_run()
    result = cluster.run()
    commits = result.metrics.commits
    assert commits > 50
    entries = next(cluster.env._seq)
    assert entries / commits <= MAX_HEAP_ENTRIES_PER_COMMIT, (
        entries, commits)


#: Lock requests and generator resumes per commit when a zero-cost
#: refusal parks until its certificate fails: 5.89 and 26.00 on
#: :func:`plane_run`, 4.14 and 29.38 on :func:`hotset_run`.  Polling
#: every retry delay, as before parking, they were 8.32 and 28.36, and
#: 5.45 and 30.69.
PARKED_GATES = {
    "plane_run": (6.5, 27.0),
    "hotset_run": (4.6, 30.0),
}


@pytest.mark.parametrize("run", sorted(PARKED_GATES))
def test_zero_cost_refusals_park_instead_of_polling(run):
    cluster = {"plane_run": plane_run, "hotset_run": hotset_run}[run]()
    counts = Counter()
    request_lock, resume = Scheduler.request_lock, Process._resume

    def counted_request(self, txn, now=0.0):
        counts["requests"] += 1
        return request_lock(self, txn, now)

    def counted_resume(self, event):
        counts["resumes"] += 1
        return resume(self, event)

    with mock.patch.object(Scheduler, "request_lock", counted_request), \
            mock.patch.object(Process, "_resume", counted_resume):
        result = cluster.run()
    commits = result.metrics.commits
    assert commits > 20 and result.metrics.lock_retries > commits
    max_requests, max_resumes = PARKED_GATES[run]
    assert counts["requests"] / commits <= max_requests, (
        dict(counts), commits)
    assert counts["resumes"] / commits <= max_resumes, (
        dict(counts), commits)


def _frozen_dataclass_inits(counts):
    """A profile hook counting the ``__init__`` runs of frozen dataclasses."""
    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "__init__":
            params = getattr(type(frame.f_locals.get("self")),
                             "__dataclass_params__", None)
            if params is not None and params.frozen:
                counts[type(frame.f_locals["self"]).__name__] += 1
    return hook


#: Exact work of :func:`scan_window_run` (93 commits): heap pushes, and
#: frozen-dataclass constructions while it runs.  1,232 pushes (13.25
#: per commit); 1,325 (14.25) when the end of a BAT process nobody waits
#: on still took a heap entry.  No frozen dataclass is built; there were
#: 744 (8 per commit) when steps, lock declarations, lock and admission
#: verdicts were frozen dataclasses.  Counts, not timings: any change to
#: the hot path moves them, and re-pins them here with its reason.
SCAN_COMMITS = 93
SCAN_HEAP_PUSHES = 1232


def test_scan_hot_path_work_is_pinned():
    cluster = scan_window_run()
    frozen = Counter()
    previous = sys.getprofile()
    with mock.patch("repro.engine.core.heappush",
                    wraps=core.heappush) as pushes:
        sys.setprofile(_frozen_dataclass_inits(frozen))
        try:
            result = cluster.run()
        finally:
            sys.setprofile(previous)
    assert result.metrics.commits == SCAN_COMMITS
    assert pushes.call_count == SCAN_HEAP_PUSHES
    assert not frozen, dict(frozen)
