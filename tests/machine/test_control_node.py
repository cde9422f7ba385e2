"""Focused tests of the control node: CPU costing and queueing.

The paper's centralized control node is the one-shard control plane;
its one CPU is the FIFO server of ``plane.shards[0]`` (``charge`` /
``busy_time``).
"""

from unittest import mock

import pytest

from repro import SimulationParameters
from repro.core import Step, TransactionRuntime, TransactionSpec
from repro.core.history import History
from repro.core.schedulers import make_scheduler
from repro.engine import Environment
from repro.errors import SchedulerError
from repro.machine import Catalog, ControlPlane, DataNode
from repro.machine.shard import ControlShard
from repro.metrics import MetricsCollector


def build(scheduler_name="C2PL", **param_overrides):
    params = SimulationParameters(scheduler=scheduler_name,
                                  num_partitions=8, **param_overrides)
    env = Environment()
    catalog = Catalog.uniform(8, 5.0, params.num_nodes)
    nodes = [DataNode(env, i, params.obj_time)
             for i in range(params.num_nodes)]
    metrics = MetricsCollector()
    cn = ControlPlane(env, params,
                      lambda: make_scheduler(scheduler_name,
                                             **params.scheduler_kwargs()),
                      catalog, nodes, metrics, history=History())
    assert cn.num_shards == params.num_control_nodes
    return env, cn, metrics


def txn(tid, steps, arrival=0.0):
    return TransactionRuntime(TransactionSpec(tid, steps),
                              arrival_time=arrival)


class TestSingleTransaction:
    def test_lifecycle_times_add_up(self):
        env, cn, metrics = build(startup_time=20, commit_time=50,
                                 admission_time=5, dd_time=5)
        t = txn(1, [Step.read(0, 2)])
        env.process(cn.transaction_process(t))
        env.run()
        # admission 5 + startup 20 + lock 5 + work 2000 + commit 50.
        assert env.now == 2080
        assert t.commit_time == 2080
        assert metrics.commits == 1

    def test_active_transactions_gauge(self):
        env, cn, _ = build()
        t = txn(1, [Step.read(0, 1)])
        env.process(cn.transaction_process(t))
        env.run(until=500)
        assert cn.active_transactions == 1
        env.run()
        assert cn.active_transactions == 0

    def test_history_records_holds(self):
        env, cn, _ = build()
        t = txn(1, [Step.read(0, 1), Step.write(1, 1)])
        env.process(cn.transaction_process(t))
        env.run()
        assert len(cn.history.holds) == 2
        for hold in cn.history.holds:
            assert hold.released_at == t.commit_time


class TestCpuQueueing:
    def test_control_work_serialises_on_cn_cpu(self):
        """Two simultaneous arrivals: the second's admission waits for
        the first's admission+startup on the single CN CPU."""
        env, cn, _ = build(startup_time=100, admission_time=50,
                           commit_time=0, dd_time=0)
        t1 = txn(1, [Step.read(0, 1)])
        t2 = txn(2, [Step.read(1, 1)])
        env.process(cn.transaction_process(t1))
        env.process(cn.transaction_process(t2))
        env.run()
        # Decisions are instantaneous (state changes at call time); the
        # CPU *charges* serialise FIFO: admit1 [0,50), admit2 [50,100),
        # startup1 [100,200) -> t1 starts at 200; startup2 [200,300) ->
        # t2 starts at 300.
        assert t1.start_time == pytest.approx(200)
        assert t2.start_time == pytest.approx(300)

    def test_utilization_counts_all_control_work(self):
        env, cn, _ = build(startup_time=100, admission_time=50,
                           commit_time=200, dd_time=25)
        t = txn(1, [Step.read(0, 1)])
        env.process(cn.transaction_process(t))
        env.run()
        busy = cn.shards[0].busy_time()
        assert busy == pytest.approx(50 + 100 + 25 + 200)
        assert cn.utilizations(env.now) == [pytest.approx(busy / env.now)]

    def test_zero_cost_work_skips_cpu(self):
        env, cn, _ = build(startup_time=0, admission_time=0,
                           commit_time=0, dd_time=0)
        t = txn(1, [Step.read(0, 1)])
        env.process(cn.transaction_process(t))
        env.run()
        assert cn.shards[0].busy_time() == 0.0
        assert env.now == 1000  # pure data-node time


class TestClaimRule:
    def test_first_decision_claims_the_shared_cpu_first(self):
        """Two coordinators decide at the same instant on CN 0 of a 2-CN
        plane: A admits across both CNs, then B asks CN 0 for a lock.
        A decided first, so A's admission charge starts first on CN 0,
        although its cost is spent on two CPUs in parallel."""
        env, cn, _ = build(num_control_nodes=2, admission_time=7,
                           startup_time=4, dd_time=3, commit_time=0)
        # B (one shard) admits on CN 0 over [0, 7) and starts over
        # [7, 11); the startup end resumes B, which asks for its lock at
        # 11.  A's arrival timeout was drawn at 0, so A decides first.
        a = txn(1, [Step.read(0, 1), Step.read(1, 1)])
        b = txn(2, [Step.read(2, 1)])
        decided, ends = [], []
        for shard in cn.shards:
            scheduler = shard.live
            for name in ("admit", "request_lock"):
                def logged(sub, now, call=getattr(scheduler, name),
                           name=name):
                    decided.append((now, name, sub.tid))
                    return call(sub, now)
                setattr(scheduler, name, logged)
        charge = ControlShard.charge

        def timed(shard, cost):
            end = charge(shard, cost)
            end.callbacks.append(
                lambda _: ends.append((shard.shard_id, env.now - cost,
                                       cost)))
            return end

        def arrive(at, t):
            yield env.timeout(at)
            yield from cn.transaction_process(t)

        with mock.patch.object(ControlShard, "charge", timed):
            env.process(arrive(11, a))
            env.process(cn.transaction_process(b))
            env.run()
        at_11 = [d for d in decided if d[0] == 11]
        assert at_11[:3] == [(11, "admit", 1), (11, "admit", 1),
                             (11, "request_lock", 2)]
        cn0 = sorted((start, cost) for sid, start, cost in ends
                     if sid == 0 and start >= 11)
        # A's admission (7) starts at 11, B's lock test (3) queues.
        assert cn0[:2] == [(11, 7), (18, 3)]
        assert a.commit_time is not None and b.commit_time is not None


class TestRetrySemantics:
    def test_blocked_request_retries_after_delay(self):
        env, cn, metrics = build(retry_delay=500, admission_time=0,
                                 startup_time=0, commit_time=0, dd_time=0)
        t1 = txn(1, [Step.write(0, 2)])
        t2 = txn(2, [Step.write(0, 1)])
        env.process(cn.transaction_process(t1))
        env.process(cn.transaction_process(t2))
        env.run()
        assert metrics.lock_retries > 0
        assert t1.commit_time == 2000
        # t2 waits for t1's commit, then its next 500ms poll grants.
        assert t2.commit_time > 2000
        assert (t2.commit_time - 1000) % 500 == pytest.approx(0, abs=1e-6)

    def test_doom_during_commit_window_leaves_no_stale_entry(self):
        """Regression (RL006 review follow-up): a cascade doom landing
        while the coordinator is charging commit_time loses the race —
        the commit proceeds — but its `_doomed` entry used to outlive
        the transaction forever, accumulating across cascade-heavy
        faulty runs.  The commit path must reap it."""
        env, cn, metrics = build(startup_time=20, commit_time=50,
                                 admission_time=5, dd_time=5)
        t = txn(1, [Step.read(0, 2)])
        env.process(cn.transaction_process(t))
        landed = []

        def doom_mid_commit():
            # Commit window is [2030, 2080) for this configuration
            # (admission 5 + startup 20 + lock 5 + work 2000 + commit 50).
            yield env.timeout(2040)
            landed.append(cn.request_abort(1, "cascade"))

        env.process(doom_mid_commit())
        env.run()
        assert landed == [True]          # the doom really hit the window
        assert metrics.commits == 1      # ...and the commit still won
        assert t.commit_time == 2080
        assert cn._doomed == {}          # no stale entry survives

    def test_doom_during_startup_window_lands(self):
        """Regression: a cascade doom that arrives while the coordinator
        is charging startup_time used to be silently void — the tid
        entered `_running` only *after* the startup yield, so the victim
        ran its whole attempt with locks its doomed predecessor's abort
        should have cascaded away.  The tid must be doomable from the
        instant the scheduler holds admission state for it."""
        env, cn, metrics = build(startup_time=20, commit_time=50,
                                 admission_time=5, dd_time=5,
                                 retry_delay=100)
        t = txn(1, [Step.read(0, 2)])
        env.process(cn.transaction_process(t))
        landed = []

        def doom_mid_startup():
            # Startup window is [5, 25) (admission 5 + startup 20).
            yield env.timeout(10)
            landed.append(cn.request_abort(1, "cascade"))

        env.process(doom_mid_startup())
        env.run()
        assert landed == [True]          # the doom hit, not voided
        assert metrics.void_cascades == 0
        assert metrics.cascade_aborts == 1
        assert metrics.restarts == 1     # the victim re-ran from scratch
        assert metrics.commits == 1
        # Attempt 1 died at the first decision point after startup (t=25,
        # zero objects wasted), so the retry pushes the commit past the
        # clean-run instant 2080.
        assert metrics.wasted_objects == 0.0
        assert t.commit_time > 2080

    def test_cascade_without_victim_is_counted_void(self):
        """A doom aimed at a tid the CN is not running (already
        committed, or never admitted) is void — and counted, so cascade
        accounting stays conserved."""
        env, cn, metrics = build(startup_time=20, commit_time=50,
                                 admission_time=5, dd_time=5)
        t = txn(1, [Step.read(0, 2)])
        env.process(cn.transaction_process(t))

        def doom_late():
            yield env.timeout(2090)      # after the commit at 2080
            assert cn.request_abort(1, "cascade") is False
            assert cn.request_abort(99, "cascade") is False  # unknown tid

        env.process(doom_late())
        env.run()
        assert metrics.commits == 1
        assert metrics.void_cascades == 2
        assert metrics.cascade_aborts == 0

    def test_admission_rejection_counts_attempts(self):
        env, cn, _ = build(scheduler_name="ASL", retry_delay=500,
                           startup_time=0, commit_time=0)
        t1 = txn(1, [Step.write(0, 3)])
        t2 = txn(2, [Step.write(0, 1)])
        env.process(cn.transaction_process(t1))
        env.process(cn.transaction_process(t2))
        env.run()
        assert t2.attempts > 0  # had to re-submit while T1 held the lock
        assert t2.commit_time > t1.commit_time


class TestRecovery:
    def test_unlogged_cn_cannot_replay(self):
        """Without a planned CN crash the single CN keeps no dependency
        log, so a crash of it cannot be recovered — recovery says so
        with a typed error instead of failing on the missing log."""
        env, cn, _ = build()
        assert cn.shards[0].log is None
        cn.crash_shard(0)
        with pytest.raises(SchedulerError, match="no dependency log"):
            cn.recover_shard(0)
