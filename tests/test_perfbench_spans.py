"""perfbench's span recorder still finds every entry point it patches.

``perfbench/spans.py`` wraps simulator functions by name.  A renamed
entry point makes the recorder fail to enter (``KeyError``), and one the
simulator stops calling through its patched attribute (say, a function
imported by name) silently records nothing.  Both are caught here, on a
short K2 run and a short CHAIN run with a control-node crash, instead of
only in the traced benchmark smoke run.
"""

from perfbench.spans import SpanRecorder
from repro.config import SimulationParameters
from repro.faults import ControlCrash, FaultPlan
from repro.machine.cluster import Cluster
from repro.workloads import (pattern1, pattern1_catalog, pattern2,
                             pattern2_catalog)


def k2_run():
    params = SimulationParameters(
        scheduler="K2", arrival_rate_tps=0.45, sim_clocks=60_000.0, seed=2,
        num_partitions=16)
    return Cluster(params, pattern2(num_hots=8),
                   catalog=pattern2_catalog(num_hots=8))


def chain_crash_run():
    params = SimulationParameters(
        scheduler="CHAIN", arrival_rate_tps=0.2, sim_clocks=60_000.0, seed=2,
        num_partitions=16, num_control_nodes=2)
    plan = FaultPlan(control_crashes=(
        ControlCrash(cn=0, at=25_000.0, recover_at=30_000.0),))
    return Cluster(params, pattern1(16), catalog=pattern1_catalog(),
                   fault_plan=plan)


def test_every_span_records_calls():
    with SpanRecorder() as spans:
        k2_run().run()
        chain_crash_run().run()
    silent = sorted(name for name in (
        "engine.run", "engine.timeout", "engine.horizon", "dn.submit",
        "sched.admit", "sched.lock", "sched.objects", "sched.commit",
        "locks.conflicts", "locks.kcheck", "builder.add", "estimator",
        "wtpg.cp", "wtpg.mutate", "chain.optimise", "log.append",
        "log.replay", "shard.recover", "metrics.record")
        if spans.calls[name] == 0)
    assert silent == [], f"spans that recorded nothing: {silent}"
