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
  scheduler is invariant-checked like the one it replaces).

The differential tests close the loop on the dependency log itself: a
full replay of a shard's log must reconstruct the live shard's WTPG
*edge for edge* — for shards that never crashed and for shards that
crashed, replayed, and kept serving.  Weights are deliberately outside
the comparison: per-object weight-adjustment messages are not logged, so
a replayed WTPG carries the conservative declared weights (see
``repro/machine/control_log.py``).
"""

import pytest

from repro.core.schedulers import make_scheduler
from repro.faults import ControlCrash, FaultPlan
from repro.machine.cluster import run_simulation
from tests.prop import gen
from tests.prop.harness import check_cases

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
