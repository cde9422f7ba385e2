"""Property-based control-plane crash/recovery: 500 runs per scheduler.

Each case draws a sharded machine (2-4 control nodes) and a fault plan
that kills at least one control node mid-run (most recover via
dependency-log replay), then asserts the full harness battery:

* the committed history is conflict-serializable with exclusive locks;
* ``cache_violations()`` is empty after *every* scheduler event — on
  every shard, including the fresh scheduler a recovery replays into;
* the final WTPG of every alive shard is acyclic and consistent with
  its lock table;
* no transaction is both committed and aborted (commits are final);
* every recovery went through the scheduler factory (the replayed
  scheduler is invariant-checked like the one it replaces);
* every dependency-log compaction keeps exactly the live BATs' records,
  and every recovery rebuilds what a full replay of the append-only log
  rebuilds (``tests/oracles/control_log.py``).

The differential tests close the loop on the dependency log itself: a
full replay of a shard's log must reconstruct the live shard's WTPG
*edge for edge* — for shards that never crashed and for shards that
crashed, replayed, and kept serving.  Weights are deliberately outside
the comparison: per-object weight-adjustment messages are not logged, so
a replayed WTPG carries the conservative declared weights (see
``repro/machine/control_log.py``).

The compaction differentials check the log against its own past: at
every recovery, replaying the compacted log must rebuild exactly what
replaying the append-only log (``tests/oracles/control_log.py``) does —
lock table, WTPG nodes, pair edges with their resolution and weights,
and source weights.  Abort rate and cascades are on, so ABORTs land on
down shards and compact them while they cannot serve; one case takes
every shard down at once.
"""

import pytest

from repro.core.schedulers import make_scheduler
from repro.faults import ControlCrash, FaultPlan
from repro.machine.cluster import run_simulation
from tests.oracles.control_log import ABORT, full_log_differential
from tests.prop import gen
from tests.prop.harness import assert_invariants, check_cases, run_case

SCHEDULERS = ["CHAIN", "K2", "C2PL"]  # 2PL has no WTPG slice to replay
CASES_PER_SCHEDULER = 500
CHUNK = 50
CHUNKS = CASES_PER_SCHEDULER // CHUNK


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_invariants_hold_under_cn_crashes(scheduler, chunk):
    pairs = [(scheduler, f"{scheduler}-cn-case-{i}")
             for i in range(chunk * CHUNK, (chunk + 1) * CHUNK)]
    failed = [v for v in check_cases(pairs) if not v.ok]
    assert failed == [], "\n".join(v.error for v in failed)


def structure(wtpg):
    """A WTPG's replay-comparable fingerprint: nodes plus every pair
    edge as (a, b, resolved-successor) — weights excluded by design."""
    nodes = frozenset(wtpg.transactions)
    edges = frozenset((min(e.a, e.b), max(e.a, e.b), e.resolved_to)
                      for e in wtpg.pairs())
    return nodes, edges


def replay_vs_live(params, fault_plan=None):
    """Run a sharded case, then fully replay every alive shard's log and
    compare the rebuilt WTPG with the live one, edge for edge."""
    rng = gen.case_rng(f"replay-diff-{params.scheduler}-"
                       f"{params.num_control_nodes}")
    workload = gen.make_workload(rng)
    result = run_simulation(params, workload, fault_plan=fault_plan)
    compared = 0
    for shard in result.control_plane.shards:
        if shard.scheduler is None:
            continue  # down at end of run: nothing live to compare
        assert len(shard.log) > 0, f"CN {shard.shard_id}: empty log"

        def factory():
            return make_scheduler(params.scheduler,
                                  **params.scheduler_kwargs())

        replayed, n = shard.log.replay(factory)
        assert n == len(shard.log)
        assert structure(replayed.wtpg) == structure(shard.scheduler.wtpg), (
            f"CN {shard.shard_id}: replayed WTPG diverges from live")
        compared += 1
    return result, compared


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_replay_equals_never_crashed_shard_edge_for_edge(scheduler):
    rng = gen.case_rng(f"replay-diff-params-{scheduler}")
    params = gen.make_params(rng, scheduler).with_overrides(
        num_control_nodes=3)
    result, compared = replay_vs_live(params)
    assert compared == 3          # every shard stayed up and was checked
    assert result.metrics.commits > 0


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_replay_equals_recovered_shard_edge_for_edge(scheduler):
    """After a crash + replay + further live service, a from-scratch
    replay of the full log still matches the live shard exactly: every
    post-recovery mutation was logged too."""
    rng = gen.case_rng(f"replay-diff-params-crash-{scheduler}")
    params = gen.make_params(rng, scheduler).with_overrides(
        num_control_nodes=3)
    plan = FaultPlan(control_crashes=(
        ControlCrash(0, gen.SIM_CLOCKS * 0.2,
                     recover_at=gen.SIM_CLOCKS * 0.4),))
    result, compared = replay_vs_live(params, fault_plan=plan)
    assert compared == 3
    assert result.metrics.cn_crashes == 1
    assert result.metrics.cn_recoveries == 1


def compaction_case(scheduler, name, num_control_nodes, crashes):
    """Run one case under the compacted-vs-full differential and the
    harness battery; returns (result, differential counts).

    Arrivals run at twice the busiest generated rate, with abort rate
    and cascades on, so BATs are mid-step when shards die and ABORTs
    reach down shards' logs.
    """
    rng = gen.case_rng(name)
    workload = gen.make_workload(rng)
    params = gen.make_params(rng, scheduler).with_overrides(
        num_control_nodes=num_control_nodes, arrival_rate_tps=16.0)
    plan = FaultPlan(control_crashes=tuple(crashes), abort_rate=0.3,
                     cascade=True)

    def reference():
        return make_scheduler(params.scheduler, **params.scheduler_kwargs())

    with full_log_differential(reference) as counts:
        result, proxies = run_case(params, workload, plan)
    for shard in result.control_plane.shards:
        shard.log.check_against_full()  # the logs as the run left them
    assert_invariants(result, name)
    assert counts.compactions > 0
    assert counts.recoveries == result.metrics.cn_recoveries
    assert len(proxies) == num_control_nodes + counts.recoveries
    return result, counts


@pytest.mark.parametrize("num_control_nodes", [1, 2, 3])
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_compacted_replay_equals_full_replay(scheduler, num_control_nodes):
    recoveries = aborts_while_down = 0
    for case in range(4):
        name = f"compaction-{scheduler}-{num_control_nodes}-{case}"
        rng = gen.case_rng(name + "-plan")
        crashes = []
        for cn in range(num_control_nodes):
            at = rng.uniform(200.0, gen.SIM_CLOCKS * 0.5)
            crashes.append(ControlCrash(
                cn, at, recover_at=at + rng.uniform(100.0, 600.0)))
        _, counts = compaction_case(scheduler, name, num_control_nodes,
                                    crashes)
        recoveries += counts.recoveries
        aborts_while_down += counts.aborts_while_down
    assert recoveries == 4 * num_control_nodes
    assert aborts_while_down > 0, "no ABORT ever reached a down shard"


@pytest.mark.parametrize("num_control_nodes", [2, 3])
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_every_shard_down_at_once(scheduler, num_control_nodes):
    """Overlapping crash windows on all CNs: for a while no shard is
    live, yet ABORTs keep compacting the logs; every recovery must still
    rebuild what full replay does, and the run must stay serializable."""
    compacted_while_all_down = 0
    for case in range(4):
        start = 500.0 + 200.0 * case
        crashes = [ControlCrash(cn, start + 150.0 * cn,
                                recover_at=start + 800.0 + 150.0 * cn)
                   for cn in range(num_control_nodes)]
        all_down = max(crash.at for crash in crashes)
        first_up = min(crash.recover_at for crash in crashes)
        assert all_down < first_up  # the windows overlap on every CN
        result, counts = compaction_case(
            scheduler, f"all-down-{scheduler}-{num_control_nodes}-{case}",
            num_control_nodes, crashes)
        assert result.metrics.cn_crashes == num_control_nodes
        assert counts.recoveries == num_control_nodes
        assert result.metrics.commits > 0
        compacted_while_all_down += sum(
            1 for shard in result.control_plane.shards
            for record in shard.log.full.records
            if record.kind == ABORT and all_down <= record.time < first_up)
    assert compacted_while_all_down > 0, "no ABORT while every CN was down"
