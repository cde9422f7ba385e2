"""Control-plane benchmark: decision throughput and recovery time.

Two series, each asserted by its own test and printed once both ran:

* **Decision throughput vs CN count** (1/2/4/8).  The workload is
  deliberately *control-bound*: one-object read steps (data nodes are
  never the bottleneck) under arrivals far above single-CN capacity, so
  the per-BAT control costs (admission + startup + lock + commit)
  dominate and throughput is set by control CPU.  Partitions spread
  uniformly, so sharding the control plane (partition p -> CN p mod N)
  divides the decision load; decision throughput must grow
  monotonically from 1 to 4 CNs.  A BAT is cross-shard with the
  second-step probability below, so the sweep also exercises (and
  reports) 2PC rounds.  The sweep runs under NODC: control-CPU scaling
  is a property of the machine's costing, not of any scheduling rule,
  and a scheduler whose decisions are O(active set) would make the
  *simulator* quadratic in the deliberate overload backlog.

* **Replay work vs log length**.  One sharded K2 run at stable load is
  stepped through growing stop times.  At each stop shard 0's
  dependency log is replayed into a fresh scheduler.  The log compacts
  at every COMMIT/ABORT, so replay applies only the live BATs' records:
  the retained count must stay within 2x its first value while the
  records ever appended grow at least 16x, and the replayed shard must
  equal the live one edge for edge.  The gate counts records, so it is
  deterministic; the wall-clock replay time is printed, not asserted.
"""

import time
from unittest import mock

from conftest import BENCH_SEED, print_series
from repro.config import SimulationParameters
from repro.core import builder
from repro.core.locks import LockTable
from repro.core.schedulers import make_scheduler
from repro.core.transaction import Step, TransactionSpec
from repro.machine import run_simulation
from repro.machine.cluster import Cluster
from repro.machine.control_log import ADMIT, GRANT

from tests.oracles.control_log import names

SWEEP_SCHEDULER = "NODC"
CN_COUNTS = (1, 2, 4, 8)
NUM_PARTITIONS = 16
SWEEP_RATE = 400.0      # arrivals per 1000 clocks: ~5x one CN's capacity
SWEEP_CLOCKS = 30_000.0
TWO_STEP_PROB = 0.2     # fraction of BATs that are (usually) cross-shard

RECOVERY_SCHEDULER = "K2"
# 50 arrivals per 1000 clocks of 1-2 two-object steps over 64 partitions
# and 64 data nodes (DN utilisation ~0.46), 2% of steps writes: the load
# is stable, so shard 0's live set holds at ~30-55 BATs while its log
# grows ~30x from the first stop to the last.
RECOVERY_RATE = 50.0
RECOVERY_PARTITIONS = 64
RECOVERY_WRITE_PROB = 0.02
RECOVERY_STOPS = (2_500.0, 5_000.0, 10_000.0, 20_000.0, 40_000.0, 80_000.0)

_results = {}


def control_bound_workload(tid, streams):
    """One-object reads on uniform partitions: no data contention, no
    lock conflicts — throughput is pure control-plane pipeline."""
    first = streams.randint("bench-cn", 0, NUM_PARTITIONS - 1)
    steps = [Step.read(first, 1.0)]
    if streams.uniform("bench-cn", 0.0, 1.0) < TWO_STEP_PROB:
        steps.append(Step.read(
            streams.randint("bench-cn", 0, NUM_PARTITIONS - 1), 1.0))
    return TransactionSpec(tid, steps)


def control_bound_params(scheduler, rate, num_control_nodes, sim_clocks):
    return SimulationParameters(
        scheduler=scheduler, arrival_rate_tps=rate, sim_clocks=sim_clocks,
        seed=BENCH_SEED, num_partitions=NUM_PARTITIONS, obj_time=1.0,
        admission_time=2.0, startup_time=4.0, dd_time=2.0, commit_time=4.0,
        num_control_nodes=num_control_nodes)


def decisions_per_kclock(metrics) -> float:
    """Scheduler decisions (admissions + grants + commits, summed over
    every shard) per 1000 simulated clocks of the sweep."""
    stats = metrics.scheduler_stats
    made = stats["admissions"] + stats["grants"] + stats["commits"]
    return made / SWEEP_CLOCKS * 1000.0


def decision_sweep():
    """One control-bound run per CN count; their metrics, in order."""
    return [run_simulation(
        control_bound_params(SWEEP_SCHEDULER, SWEEP_RATE, n, SWEEP_CLOCKS),
        control_bound_workload).metrics
        for n in CN_COUNTS]


def test_decision_throughput_vs_cn_count(benchmark):
    points = benchmark.pedantic(decision_sweep, rounds=1, iterations=1)
    for n, metrics in zip(CN_COUNTS, points):
        _results[("sweep", n)] = metrics
        assert metrics.commits > 0
        if n > 1:
            assert metrics.twopc_rounds > 0  # cross-shard BATs ran 2PC
    # Acceptance: decision throughput grows monotonically 1 -> 4 CNs.
    per_kclock = [decisions_per_kclock(m) for m in points]
    assert per_kclock[0] < per_kclock[1] < per_kclock[2], (
        f"decision throughput not monotone 1->4 CNs: {per_kclock}")
    _maybe_report()


def recovery_workload(tid, streams):
    """One or two short steps on uniform partitions, rarely a write: a
    steady live set with a few conflict pairs to log and replay."""
    steps = []
    for _ in range(streams.randint("bench-rec", 1, 2)):
        partition = streams.randint("bench-rec", 0, RECOVERY_PARTITIONS - 1)
        if streams.uniform("bench-rec", 0.0, 1.0) < RECOVERY_WRITE_PROB:
            steps.append(Step.write(partition, 2.0))
        else:
            steps.append(Step.read(partition, 2.0))
    return TransactionSpec(tid, steps)


def recovery_params():
    return SimulationParameters(
        scheduler=RECOVERY_SCHEDULER, arrival_rate_tps=RECOVERY_RATE,
        sim_clocks=RECOVERY_STOPS[-1], seed=BENCH_SEED,
        num_partitions=RECOVERY_PARTITIONS, num_nodes=RECOVERY_PARTITIONS,
        obj_time=200.0, admission_time=2.0, startup_time=4.0, dd_time=2.0,
        commit_time=4.0, retry_delay=50.0, num_control_nodes=2)


def structure(wtpg):
    """Nodes plus every pair edge as (a, b, resolved-successor)."""
    return (frozenset(wtpg.transactions),
            frozenset((min(e.a, e.b), max(e.a, e.b), e.resolved_to)
                      for e in wtpg.pairs()))


def replay_point(shard, factory):
    """Replay ``shard``'s log at the current instant and check it.

    Returns (records appended, records retained, live BATs, seconds).
    """
    log = shard.log
    live = shard.scheduler.wtpg
    retained = list(log.retained.values())
    for record in retained:
        assert all(tid in live for tid in names(record)), (
            f"retained {record} names a finished BAT")
    with mock.patch.object(builder, "add_transaction",
                           wraps=builder.add_transaction) as added, \
            mock.patch.object(LockTable, "grant", autospec=True,
                              side_effect=LockTable.grant) as granted:
        begin = time.perf_counter()
        replayed, lsn = log.replay(factory)
        seconds = time.perf_counter() - begin
    assert lsn == len(log)
    # Replay applied every retained ADMIT and GRANT, and nothing else.
    assert added.call_count == len(live) == sum(
        1 for record in retained if record.kind == ADMIT)
    assert granted.call_count == sum(
        1 for record in retained if record.kind == GRANT)
    assert structure(replayed.wtpg) == structure(live), (
        "replayed WTPG diverges from the live shard")
    return len(log), len(retained), len(live), seconds


def stepped_recovery():
    """Step one 2-CN run through RECOVERY_STOPS, replaying at each."""
    params = recovery_params()
    cluster = Cluster(params, recovery_workload)
    shard = cluster.control_plane.shards[0]
    points = []

    def factory():
        return make_scheduler(params.scheduler, **params.scheduler_kwargs())

    def observer():
        for stop in RECOVERY_STOPS:
            yield cluster.env.timeout(stop - cluster.env.now)
            points.append(replay_point(shard, factory))

    cluster.env.process(observer())
    cluster.run()
    return points


def test_replay_work_vs_log_length(benchmark):
    points = benchmark.pedantic(stepped_recovery, rounds=1, iterations=1)
    assert len(points) == len(RECOVERY_STOPS)
    appended = [point[0] for point in points]
    retained = [point[1] for point in points]
    # Compaction bounds replay by the live set, not by the run length.
    assert appended[-1] >= 16 * appended[0], f"log barely grew: {appended}"
    assert all(retained[0] / 2 <= r <= 2 * retained[0] for r in retained), (
        f"retained records not steady while the log grew: {points}")
    _results["recovery"] = points
    _maybe_report()


def _maybe_report():
    """Print both series once both have run."""
    if "recovery" not in _results or ("sweep", CN_COUNTS[-1]) not in _results:
        return
    sweep = [_results[("sweep", n)] for n in CN_COUNTS]
    print_series(
        f"Decision throughput (decisions/1000 clocks) vs CN count "
        f"({SWEEP_SCHEDULER}, control-bound, lambda={SWEEP_RATE})",
        "control nodes", list(CN_COUNTS),
        {"decisions/kclock": [round(decisions_per_kclock(m), 1)
                              for m in sweep],
         "commits": [m.commits for m in sweep]})
    recovery = _results["recovery"]
    print_series(
        f"Dependency-log replay vs run length ({RECOVERY_SCHEDULER}, 2 CNs, "
        f"lambda={RECOVERY_RATE}, shard 0)",
        "stop clock", list(RECOVERY_STOPS),
        {"appended": [point[0] for point in recovery],
         "retained": [point[1] for point in recovery],
         "live BATs": [point[2] for point in recovery],
         "replay ms": [round(point[3] * 1000.0, 2) for point in recovery]})
