"""Control-plane benchmark: decision throughput and recovery time.

Two series.  Under pytest the smoke asserts and prints them;
``PYTHONPATH=src python benchmarks/bench_control_plane.py`` also writes
them to ``BENCH_control.json``:

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

* **Recovery time vs log size**.  One long sharded K2 run at stable
  load accumulates a dependency log; the benchmark then replays growing
  prefixes into fresh schedulers and reports the wall-clock replay time
  per prefix — the recovery-time curve is linear in the log because
  replay applies outcomes, it never re-decides.
"""

import json
import time
from pathlib import Path

from conftest import BENCH_SEED, print_series
from repro.config import SimulationParameters
from repro.core.schedulers import make_scheduler
from repro.core.transaction import Step, TransactionSpec
from repro.machine import run_simulation
from repro.machine.cluster import Cluster
from repro.machine.control_log import EDGE

SWEEP_SCHEDULER = "NODC"
CN_COUNTS = (1, 2, 4, 8)
NUM_PARTITIONS = 16
SWEEP_RATE = 400.0      # arrivals per 1000 clocks: ~5x one CN's capacity
SWEEP_CLOCKS = 30_000.0
TWO_STEP_PROB = 0.2     # fraction of BATs that are (usually) cross-shard

RECOVERY_SCHEDULER = "K2"
RECOVERY_RATE = 100.0   # stable under 2 CNs: the log grows, queues don't
LOG_CLOCKS = 80_000.0
LOG_SIZES = (500, 1000, 2000, 4000, 8000)

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


def decisions(metrics) -> float:
    """Scheduler decisions made: admissions + grants + commits,
    summed over every shard."""
    stats = metrics.scheduler_stats
    return stats["admissions"] + stats["grants"] + stats["commits"]


def decision_sweep():
    """One control-bound run per CN count; their metrics, in order."""
    return [run_simulation(
        control_bound_params(SWEEP_SCHEDULER, SWEEP_RATE, n, SWEEP_CLOCKS),
        control_bound_workload).metrics
        for n in CN_COUNTS]


def check_decision_sweep(points):
    for n, metrics in zip(CN_COUNTS, points):
        _results[("sweep", n)] = metrics
        assert metrics.commits > 0
        if n > 1:
            assert metrics.twopc_rounds > 0  # cross-shard BATs ran 2PC
    # Acceptance: decision throughput grows monotonically 1 -> 4 CNs.
    per_kclock = [decisions(_results[("sweep", n)]) / SWEEP_CLOCKS * 1000.0
                  for n in CN_COUNTS]
    assert per_kclock[0] < per_kclock[1] < per_kclock[2], (
        f"decision throughput not monotone 1->4 CNs: {per_kclock}")


def test_decision_throughput_vs_cn_count(benchmark):
    points = benchmark.pedantic(decision_sweep, rounds=1, iterations=1)
    check_decision_sweep(points)
    _maybe_report()


def _safe_cut(records, k):
    """Advance a prefix cut past EDGE records so a GRANT is never split
    from the precedence edges it resolved."""
    while k < len(records) and records[k].kind == EDGE:
        k += 1
    return k


def recovery_log():
    """A long 2-CN run's shard-0 log and a matching scheduler factory."""
    params = control_bound_params(RECOVERY_SCHEDULER, RECOVERY_RATE, 2,
                                  LOG_CLOCKS)
    cluster = Cluster(params, control_bound_workload)
    cluster.run()
    log = cluster.control_plane.shards[0].log
    assert log is not None
    assert len(log) >= LOG_SIZES[-1], (
        f"log too small for the sweep: {len(log)} records")

    def factory():
        return make_scheduler(params.scheduler, **params.scheduler_kwargs())

    return log, factory


def replay_sweep(log, factory):
    """Wall-clock replay of growing log prefixes: (records, seconds)."""
    series = []
    for size in LOG_SIZES:
        upto = _safe_cut(log.records, size)
        begin = time.perf_counter()
        _, replayed = log.replay(factory, upto=upto)
        series.append((replayed, time.perf_counter() - begin))
    return series


def check_replay_sweep(series):
    for (replayed, seconds), size in zip(series, LOG_SIZES):
        assert replayed >= size
        assert seconds > 0.0
    # More log must take more replay work; the extremes are far enough
    # apart (16x) that wall-clock ordering is stable.
    assert series[-1][1] > series[0][1], f"replay time not growing: {series}"
    _results["recovery"] = series


def test_recovery_time_vs_log_size(benchmark):
    log, factory = recovery_log()
    series = benchmark.pedantic(replay_sweep, args=(log, factory),
                                rounds=1, iterations=1)
    check_replay_sweep(series)
    _maybe_report()


def _per_kclock():
    return {n: decisions(_results[("sweep", n)]) / SWEEP_CLOCKS * 1000.0
            for n in CN_COUNTS}


def _maybe_report():
    """Print both series once both have run."""
    if "recovery" not in _results or ("sweep", CN_COUNTS[-1]) not in _results:
        return
    per_kclock = _per_kclock()
    print_series(
        f"Decision throughput (decisions/1000 clocks) vs CN count "
        f"({SWEEP_SCHEDULER}, control-bound, lambda={SWEEP_RATE})",
        "control nodes", list(CN_COUNTS),
        {"decisions/kclock": [round(per_kclock[n], 1) for n in CN_COUNTS],
         "commits": [_results[("sweep", n)].commits for n in CN_COUNTS]})
    recovery = _results["recovery"]
    print_series(
        "Dependency-log replay wall-clock (ms) vs log size (records)",
        "records", [r for r, _ in recovery],
        {"replay ms": [round(s * 1000.0, 2) for _, s in recovery]})


def write_grid():
    """Run both series and write them to ``BENCH_control.json``."""
    check_decision_sweep(decision_sweep())
    check_replay_sweep(replay_sweep(*recovery_log()))
    _maybe_report()
    per_kclock = _per_kclock()
    payload = {
        "sweep_scheduler": SWEEP_SCHEDULER,
        "recovery_scheduler": RECOVERY_SCHEDULER,
        "arrival_rate_tps": SWEEP_RATE,
        "sim_clocks": SWEEP_CLOCKS, "num_partitions": NUM_PARTITIONS,
        "decision_throughput": [
            {"control_nodes": n,
             "decisions_per_kclock": per_kclock[n],
             "throughput_tps": _results[("sweep", n)].throughput_tps,
             "commits": _results[("sweep", n)].commits,
             "twopc_rounds": _results[("sweep", n)].twopc_rounds,
             "cn_utilizations": _results[("sweep", n)].cn_utilizations}
            for n in CN_COUNTS],
        "recovery": [
            {"records": records, "replay_seconds": seconds}
            for records, seconds in _results["recovery"]],
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_control.json"
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    write_grid()
