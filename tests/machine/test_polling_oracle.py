"""Parked retries equal literal polling, run for run.

A BAT whose request was refused at no cost sleeps until an input its
verdict read may have changed, and counts the polls it skipped
(:meth:`repro.machine.shard.ControlPlane._retry`).  Each case here runs
twice untraced, with a recorded history: once as shipped and once under
:func:`tests.oracles.polling.literal_polling`, where every BAT asks
again every ``retry_delay``.  ``RunMetrics`` (scheduler counters
included) and the committed history must be equal.  A traced BAT always
polls literally, so the golden digests and the property harness, which
trace every BAT, never reach the parked path; these cases do.

The cases: every configuration of ``test_single_cn_golden.py``, pinned
perfbench replications of ``hotset_k2`` and ``shard_recovery``, the
CN-crash cases of ``tests/prop/test_control_crashes.py``, and generated
CHAIN cases that only the WTPG's structure generation wakes correctly.  With
``REPRO_POLLING_ORACLE_SECONDS=S`` the perfbench test checks every
replication of an ``S``-second seed-11 run instead; CI does so at 12
seconds (67 + 63 replications).
"""

import os
from contextlib import nullcontext

import pytest

from perfbench.workloads import WORKLOADS
from repro.config import SimulationParameters
from repro.core import Step, TransactionRuntime, TransactionSpec
from repro.core.schedulers import make_scheduler
from repro.core.schedulers.base import ControlSaver
from repro.engine import Environment
from repro.faults import ControlCrash, FaultPlan
from repro.machine import Catalog, ControlPlane, DataNode
from repro.machine.cluster import Cluster
from repro.machine.parking import _first_grid_point
from repro.metrics import MetricsCollector
from repro.workloads import pattern1, pattern1_catalog
from tests.machine.test_single_cn_golden import DIGESTS, PLANE_DIGESTS, PLANS
from tests.oracles.polling import literal_polling
from tests.prop import gen
from tests.prop.test_control_crashes import CASES_PER_SCHEDULER
from tests.prop.test_control_crashes import SCHEDULERS as CRASH_SCHEDULERS

SEED = 11

#: 0 runs the pinned replications; otherwise the length in seconds of
#: the seed-11 perfbench run whose every replication is compared.
SECONDS = float(os.environ.get("REPRO_POLLING_ORACLE_SECONDS", "0"))

PINNED = {
    "hotset_k2": [11000, 11001, 11002, 11003],
    "shard_recovery": [11000, 11001, 11002, 11003, 11004, 11005],
}


def outcome(build):
    """``RunMetrics.as_dict()`` and the history of the run ``build()``
    makes, parked and literal."""
    result = build().run()
    parked = (result.metrics.as_dict(), result.history.holds)
    with literal_polling():
        result = build().run()
    return parked, (result.metrics.as_dict(), result.history.holds)


def golden_cluster(scheduler, plan, control_nodes):
    params = SimulationParameters(scheduler=scheduler, arrival_rate_tps=0.7,
                                  sim_clocks=150_000, seed=5,
                                  num_partitions=16,
                                  num_control_nodes=control_nodes)
    return Cluster(params, pattern1(), catalog=pattern1_catalog(),
                   record_history=True, fault_plan=PLANS[plan])


GOLDEN = sorted({(1, scheduler, plan) for scheduler, plan in DIGESTS}
                | set(PLANE_DIGESTS))


@pytest.mark.parametrize("control_nodes,scheduler,plan", GOLDEN)
def test_golden_configurations(control_nodes, scheduler, plan):
    parked, literal = outcome(
        lambda: golden_cluster(scheduler, plan, control_nodes))
    assert parked[0] == literal[0], "RunMetrics differ"
    assert parked[1] == literal[1], "histories differ"


def replications(name):
    if SECONDS:
        return WORKLOADS[name].rep_seeds(SEED, SECONDS)
    return PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_perfbench_replications(name):
    workload = WORKLOADS[name]
    differ = []
    for rep in replications(name):
        def build():
            cluster = workload.build(rep, False)
            return Cluster(cluster.params, cluster.workload,
                           catalog=cluster.catalog, record_history=True,
                           tracer=cluster.tracer,
                           fault_plan=cluster.fault_plan)
        parked, literal = outcome(build)
        if parked != literal:
            differ.append(rep)
    assert differ == [], f"{name}: parked runs differ from literal polling"


def control_case(scheduler, name, num_control_nodes, crashes):
    """``compaction_case`` of the property suite, untraced."""
    rng = gen.case_rng(name)
    workload = gen.make_workload(rng)
    params = gen.make_params(rng, scheduler).with_overrides(
        num_control_nodes=num_control_nodes, arrival_rate_tps=16.0)
    plan = FaultPlan(control_crashes=tuple(crashes), abort_rate=0.3,
                     cascade=True)
    return lambda: Cluster(params, workload, record_history=True,
                           fault_plan=plan)


@pytest.mark.parametrize("num_control_nodes", [1, 2, 3])
@pytest.mark.parametrize("scheduler", CRASH_SCHEDULERS)
def test_control_crash_cases(scheduler, num_control_nodes):
    for case in range(4):
        name = f"compaction-{scheduler}-{num_control_nodes}-{case}"
        rng = gen.case_rng(name + "-plan")
        crashes = []
        for cn in range(num_control_nodes):
            at = rng.uniform(200.0, gen.SIM_CLOCKS * 0.5)
            crashes.append(ControlCrash(
                cn, at, recover_at=at + rng.uniform(100.0, 600.0)))
        parked, literal = outcome(control_case(
            scheduler, name, num_control_nodes, crashes))
        assert parked == literal, name
        if num_control_nodes > 1:
            start = 500.0 + 200.0 * case
            crashes = [ControlCrash(cn, start + 150.0 * cn,
                                    recover_at=start + 800.0 + 150.0 * cn)
                       for cn in range(num_control_nodes)]
            name = f"all-down-{scheduler}-{num_control_nodes}-{case}"
            parked, literal = outcome(control_case(
                scheduler, name, num_control_nodes, crashes))
            assert parked == literal, name


@pytest.mark.parametrize("scheduler", CRASH_SCHEDULERS)
def test_generated_control_crash_cases(scheduler):
    """Every generated CN-crash case of the property suite."""
    differ = []
    for i in range(CASES_PER_SCHEDULER):
        name = f"{scheduler}-cn-case-{i}"
        rng = gen.case_rng(name)
        workload = gen.make_workload(rng)
        params = gen.make_control_params(rng, scheduler)
        plan = gen.make_control_fault_plan(rng, params.num_control_nodes)
        parked, literal = outcome(lambda: Cluster(
            params, workload, record_history=True, fault_plan=plan))
        if parked != literal:
            differ.append(name)
    assert differ == []


#: Generated CHAIN cases (named for their ``gen.case_rng`` seed) in which
#: a grant on another partition resolves the pair behind a parked DELAY,
#: so only the WTPG's structure generation wakes it: a certificate
#: without it differs from literal polling on each of them.
CHAIN_RESOLVED_ELSEWHERE = ["search-76", "search-149", "search-193"]


@pytest.mark.parametrize("name", CHAIN_RESOLVED_ELSEWHERE)
def test_chain_delays_wake_when_a_pair_is_resolved_elsewhere(name):
    rng = gen.case_rng(name)
    workload = gen.make_workload(rng)
    params = gen.make_params(rng, "CHAIN").with_overrides(
        arrival_rate_tps=rng.choice([4.0, 8.0, 16.0]),
        keep_time=rng.choice([5000.0, 1e6, 500.0]),
        num_control_nodes=rng.choice([1, 1, 2]))
    parked, literal = outcome(lambda: Cluster(
        params, workload, record_history=True))
    assert parked == literal


def blocked_pair():
    """T1 writes P0 for 2000 clocks; T2, blocked behind it at t=0 at no
    cost, has a poll grid of 500, 1000, 1500, ..."""
    params = SimulationParameters(
        scheduler="C2PL", num_partitions=8, retry_delay=500,
        admission_time=0, startup_time=0, commit_time=0, dd_time=0)
    env = Environment()
    nodes = [DataNode(env, i, params.obj_time)
             for i in range(params.num_nodes)]
    metrics = MetricsCollector()
    plane = ControlPlane(env, params, lambda: make_scheduler(
        "C2PL", **params.scheduler_kwargs()),
        Catalog.uniform(8, 5.0, params.num_nodes), nodes, metrics)
    for tid, objects in ((1, 2), (2, 1)):
        env.process(plane.transaction_process(TransactionRuntime(
            TransactionSpec(tid, [Step.write(0, objects)]))))
    return env, plane, metrics


@pytest.mark.parametrize("until", [1499.0, 1500.0, 1501.0, 4000.0])
def test_a_run_read_at_its_cutoff_counts_the_polls_due_by_then(until):
    counts = []
    for literal in (False, True):
        with (literal_polling() if literal else nullcontext()):
            env, plane, metrics = blocked_pair()
            env.run(until=until)
        plane.parking.settle()
        counts.append((metrics.lock_retries,
                       plane.shards[0].live.stats.as_dict()))
    assert counts[0] == counts[1]


def test_a_parked_bat_holds_no_heap_entry():
    entries = []
    for literal in (False, True):
        with (literal_polling() if literal else nullcontext()):
            env, plane, metrics = blocked_pair()
            env.run()
        entries.append(next(env._seq))
        assert metrics.commits == 2
        # Refused at 0, 500, 1000, 1500 and 2000 (the poll at 2000 comes
        # before T1's release there), granted at 2500.
        assert metrics.lock_retries == 5
    # Parked, T2 sleeps from 0 to T1's release with no entry; literally
    # its four vain polls after 0 are an entry each.
    assert entries[1] - entries[0] >= 4


@pytest.mark.parametrize("origin,delay,keeptime", [
    (0.0, 500.0, 5000.0), (1234.5678, 500.0, 5000.0),
    (99_999.123, 500.0, 60_000.0), (7.0, 0.1, 1000.0),
    (3.3, 1 / 3, 40_000.0), (250_000.7, 500.0, 1e8)])
def test_the_keeptime_deadline_is_the_literal_grid_point(origin, delay,
                                                         keeptime):
    """A CHAIN DELAY's deadline is the first grid point at which the
    literal loop would find W stale; far deadlines are bisected."""
    saver = ControlSaver(keeptime)
    saver.mark_computed(origin - 17.25)
    k, prev, t = 1, origin, origin + delay
    while not saver.stale(t):
        k, prev, t = k + 1, t, t + delay
    assert _first_grid_point(origin, delay, saver.stale) == (k, prev, t)
