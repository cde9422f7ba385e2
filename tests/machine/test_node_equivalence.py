"""Pre-playing vs literal data-node loop: byte-identical runs.

:class:`repro.machine.DataNode` (pre-played quantum windows) must be
indistinguishable from the literal one-timeout-per-quantum loop
(:class:`tests.oracles.ReferenceDataNode`) across every observable surface:
trace streams, run metrics, per-node counters, scheduler stats — under
every scheduler and under fault plans, and without float drift over a
million quanta.
"""

import json
from contextlib import nullcontext
from unittest import mock

import pytest

from repro.config import SimulationParameters
from repro.core import Step, TransactionRuntime, TransactionSpec
from repro.engine import Environment
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, NodeCrash, PartitionSlowdown
from repro.machine import DataNode
from repro.machine.cluster import Cluster
from repro.machine.trace import Tracer
from repro.workloads import pattern1, pattern1_catalog
from tests.oracles import ReferenceDataNode, reference_data_nodes

SCHEDULERS = ["CHAIN", "K2", "C2PL", "2PL"]

FAULT_PLAN = FaultPlan(
    crashes=(NodeCrash(2, 15_000.0, recover_at=25_000.0),),
    slowdowns=(PartitionSlowdown(3, 2.0, 5_000.0, 40_000.0),),
    abort_rate=0.25, cascade=True)


def run_fingerprint(scheduler, loop, fault_plan=None):
    params = SimulationParameters(scheduler=scheduler, arrival_rate_tps=0.6,
                                  sim_clocks=60_000, seed=11,
                                  num_partitions=16)
    oracle = (reference_data_nodes() if loop == "reference"
              else nullcontext())
    with oracle:
        cluster = Cluster(params, pattern1(), catalog=pattern1_catalog(),
                          tracer=Tracer(), fault_plan=fault_plan)
    result = cluster.run()
    trace_bytes = "\n".join(e.to_json() for e in result.tracer.events)
    metrics_bytes = json.dumps(result.metrics.as_dict(), sort_keys=True)
    node_bytes = json.dumps([(dn.busy_time, dn.objects_processed,
                              dn.messages_sent)
                             for dn in cluster.data_nodes])
    return trace_bytes, metrics_bytes, node_bytes


class TestClusterEquivalence:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_fault_free_runs_are_byte_identical(self, scheduler):
        batched = run_fingerprint(scheduler, "batched")
        reference = run_fingerprint(scheduler, "reference")
        assert batched[0] == reference[0], "traces diverged"
        assert batched[1] == reference[1], "metrics diverged"
        assert batched[2] == reference[2], "node counters diverged"

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_faulted_runs_are_byte_identical(self, scheduler):
        batched = run_fingerprint(scheduler, "batched", FAULT_PLAN)
        reference = run_fingerprint(scheduler, "reference", FAULT_PLAN)
        assert batched[0] == reference[0], "traces diverged under faults"
        assert batched[1] == reference[1], "metrics diverged under faults"
        assert batched[2] == reference[2], "node counters diverged"


# -- raw-node scenarios -------------------------------------------------------


NODE_CLASSES = {"batched": DataNode, "reference": ReferenceDataNode}


def rt(tid, cost=10.0):
    return TransactionRuntime(TransactionSpec(tid, [Step.read(0, cost)]))


def drive(mode, scenario, obj_time=1000.0, coalesced=False):
    """Run ``scenario(env, node, log)`` and fingerprint everything.

    Each step's completion is fingerprinted with the instant its done
    event fired (None if it never did).  With ``coalesced`` the node
    also gets an ``on_objects_batch`` callback, so the batched node
    reports a resident's pre-played quanta in one call; the log is then
    compared per transaction, since the order of callbacks across
    transactions is free (see the equivalence argument in
    ``repro/machine/data_node.py``).
    """
    log = []
    fired = {}
    env = Environment()
    batch = ((lambda txn, k: log.extend([(txn.tid, 1.0)] * k))
             if coalesced else None)
    node = NODE_CLASSES[mode](
        env, 0, obj_time=obj_time,
        on_objects=lambda txn, q: log.append((txn.tid, q)),
        on_objects_batch=batch)
    submit = node.submit

    def timed_submit(txn, objects):
        done = submit(txn, objects)
        done.callbacks.append(
            lambda event: fired.__setitem__(event, env.now))
        return done
    node.submit = timed_submit
    completions = scenario(env, node, log)
    if coalesced:
        log = sorted(log, key=lambda entry: entry[0])
    return (log, node.busy_time, node.objects_processed, node.messages_sent,
            [(e.triggered, e.ok if e.triggered else None, fired.get(e))
             for e in completions])


def both_modes(scenario):
    return (drive("batched", scenario), drive("reference", scenario))


def guarded(event):
    """Mark a done event defused: the test reads its outcome directly."""
    event._defused = True
    return event


def test_round_robin_with_fractional_tails_is_identical():
    def scenario(env, node, log):
        done = [node.submit(rt(1), 3.2), node.submit(rt(2), 5.0)]
        env.run(until=env.all_of(done))
        return done
    batched, reference = both_modes(scenario)
    assert batched == reference


def test_staggered_submission_joins_rotation_identically():
    def scenario(env, node, log):
        done = [node.submit(rt(1), 6.0)]

        def late():
            yield env.timeout(2500.0)
            done.append(node.submit(rt(2), 2.5))
        env.process(late())
        env.run(until=30_000)
        return done
    batched, reference = both_modes(scenario)
    assert batched == reference


def test_crash_mid_batch_is_identical():
    def scenario(env, node, log):
        done = [guarded(node.submit(rt(1), 8.0)),
                guarded(node.submit(rt(2), 4.0))]

        def crash():
            yield env.timeout(3500.0)
            node.crash()
            yield env.timeout(2000.0)
            node.recover()
        env.process(crash())
        env.run(until=30_000)
        return done
    batched, reference = both_modes(scenario)
    assert batched == reference


def test_cancel_mid_batch_is_identical():
    def scenario(env, node, log):
        done = [guarded(node.submit(rt(1), 8.0)),
                guarded(node.submit(rt(2), 4.0))]

        def cancel():
            yield env.timeout(4500.0)
            node.cancel(1)
        env.process(cancel())
        env.run(until=30_000)
        return done
    batched, reference = both_modes(scenario)
    assert batched == reference


def test_slowdown_window_is_identical():
    def scenario(env, node, log):
        done = [node.submit(rt(1), 10.0)]

        def slow():
            yield env.timeout(1500.0)
            token = node.apply_slowdown(2.5)
            yield env.timeout(4000.0)
            node.clear_slowdown(token)
        env.process(slow())
        env.run(until=60_000)
        return done
    batched, reference = both_modes(scenario)
    assert batched == reference


def test_million_quanta_no_float_drift():
    """10^6 whole quanta plus a fractional tail: every accumulator and
    the completion instant must match the reference loop bit-for-bit
    (no _EPSILON or rounding divergence over long batches)."""
    objects = 1_000_000.2

    def run(mode):
        env = Environment()
        totals = [0.0, 0]
        node = NODE_CLASSES[mode](
            env, 0, obj_time=1000.0,
            on_objects=lambda txn, q: [
                totals.__setitem__(0, totals[0] + q),
                totals.__setitem__(1, totals[1] + 1)])
        done = node.submit(rt(1, cost=objects), objects)
        env.run(until=done)
        return (env.now, node.busy_time, node.objects_processed,
                node.messages_sent, totals[0], totals[1])

    assert run("batched") == run("reference")


def test_fractional_arrival_offset_no_drift():
    """A non-representable start offset: boundary additions round, and
    the batched loop must round the same way the reference chain does."""
    def scenario(env, node, log):
        done = []

        def start():
            yield env.timeout(0.1)  # 0.1 is not exactly representable
            done.append(node.submit(rt(1), 4097.2))
        env.process(start())
        env.run(until=5_000_000)
        return done
    batched, reference = both_modes(scenario)
    assert batched == reference


# -- the coalesced round-robin and its literal fallbacks ----------------------


def three_residents_and_a_late_one(env, node, log):
    done = [node.submit(rt(1), 7.2),
            node.submit(rt(2), 5.0),
            node.submit(rt(3), 9.5)]

    def late():
        yield env.timeout(2.1)  # not exactly representable
        done.append(node.submit(rt(4), 3.3))
    env.process(late())
    env.run()
    return done


def three_residents_under_stacked_slowdowns(env, node, log):
    done = [node.submit(rt(1), 60.0),
            node.submit(rt(2), 45.5),
            node.submit(rt(3), 75.0)]

    def slow():
        yield env.timeout(4.5)
        first = node.apply_slowdown(1.1)
        yield env.timeout(60.5)
        second = node.apply_slowdown(1.7)
        yield env.timeout(180.0)
        node.clear_slowdown(first)
        yield env.timeout(120.0)
        node.clear_slowdown(second)
    env.process(slow())
    env.run()
    return done


def three_residents_from_below_a_power_of_two(env, node, log):
    done = []

    def start():
        yield env.timeout(2.0 ** 20 - 0.5)
        done.extend([node.submit(rt(1), 40.2),
                     node.submit(rt(2), 33.0),
                     node.submit(rt(3), 25.5)])
    env.process(start())
    env.run()
    return done


@pytest.mark.parametrize("coalesced", [False, True],
                         ids=["per-quantum", "coalesced"])
@pytest.mark.parametrize("scenario, obj_time", [
    (three_residents_and_a_late_one, 0.3),
    (three_residents_under_stacked_slowdowns, 3.0),
    (three_residents_from_below_a_power_of_two, 1.0),
], ids=["fractional-obj-time", "stacked-slowdown", "below-power-of-two"])
def test_round_robin_fallbacks_are_identical(scenario, obj_time, coalesced):
    """Three residents rotate through the coalesced round-robin path
    where its binade arithmetic does not apply: service times of 0.3,
    3 x 1.1 and 3 x 1.1 x 1.7 are no multiples of the boundaries' ulp
    (1000 x 1.1 x 1.7 would be: it rounds to 1870.0), and a start at
    2**20 - 0.5 crosses a binade mid-window.  drive() fingerprints each
    step's completion instant."""
    batched = drive("batched", scenario, obj_time, coalesced)
    reference = drive("reference", scenario, obj_time, coalesced)
    assert batched == reference
    assert all(fired and ok for fired, ok, _ in batched[4])


# -- republication: a changed node takes its published bound back -----------
#
# Node A's pending inert quantum publishes A's first completion, which
# node B pre-plays up to.  In each scenario an observer's horizon walk
# refines A's bound, then A's conditions change while that quantum is
# pending, and A's next completion hands node B a step.  Had A kept the
# bound it published before the change, B would pre-play past the
# instant that step arrives.


def drive_pair(mode, scenario):
    """Run ``scenario(env, a, b, done)`` on two nodes; fingerprint both.

    ``done`` collects step completions; each is fingerprinted with the
    instant its event fired.
    """
    env = Environment()
    cls = NODE_CLASSES[mode]
    a, b = cls(env, 0, obj_time=1000.0), cls(env, 1, obj_time=1000.0)
    fired = {}
    done = []

    def watch(event):
        guarded(event)
        event.callbacks.append(
            lambda event: fired.__setitem__(event, env.now))
        done.append(event)
        return event
    scenario(env, a, b, watch)
    return ([(e.triggered, e.ok if e.triggered else None, fired.get(e))
             for e in done],
            [(node.busy_time, node.objects_processed, node.messages_sent)
             for node in (a, b)])


def hand_over(env, b, watch, step_done, objects=2.0):
    """When ``step_done`` fires, submit a step of ``objects`` to ``b``."""
    step_done.callbacks.append(
        lambda _event: watch(b.submit(rt(9), objects)))


def b_step(env, b, watch, delay):
    """B's own 20-object step arrives ``delay`` from now.  The process
    then waits for good: its end would be a pending non-inert event that
    caps B's horizon by itself."""
    yield env.timeout(delay)
    watch(b.submit(rt(8), 20.0))
    yield env.event()


def republication_scenario(change, a_steps, slowdown=None):
    """A serves ``a_steps``; at 400 an observer walk refines A's bound,
    then ``change(env, a, watch)`` runs and returns the step whose
    completion hands B a 2-object step; B's own 20-object step arrives
    at 700."""
    def scenario(env, a, b, watch):
        token = None if slowdown is None else a.apply_slowdown(slowdown)
        steps = [watch(a.submit(rt(tid), objects))
                 for tid, objects in a_steps]
        env.run(until=400)
        env.affecting_horizon()
        hand_over(env, b, watch, change(env, a, watch, steps, token))

        env.process(b_step(env, b, watch, 300))
        env.run()
    return scenario


def test_submit_to_a_busy_node_republishes_its_bound():
    """A 1-object step joins A mid-quantum: A's first completion moves
    from 10,000 (its 10-object step alone) to 2,000."""
    def change(env, a, watch, steps, token):
        return watch(a.submit(rt(3), 1.0))
    scenario = republication_scenario(change, [(1, 10.0)])
    batched = drive_pair("batched", scenario)
    assert batched == drive_pair("reference", scenario)
    assert batched[0][1][2] == 2000.0


def test_cancel_of_a_queued_resident_republishes():
    """Two 10-object steps alternate; cancelling the queued one lets
    the in-flight one finish 8 quanta sooner."""
    def change(env, a, watch, steps, token):
        a.cancel(2)
        return steps[0]
    scenario = republication_scenario(change, [(1, 10.0), (2, 10.0)])
    batched = drive_pair("batched", scenario)
    assert batched == drive_pair("reference", scenario)
    assert batched[0][0][2] == 10_000.0


def test_cancel_of_the_in_flight_resident_republishes():
    """Cancelling the step in service drops its remainder, so the queued
    5-object step finishes at 6,000, not at 10,000 behind it."""
    def change(env, a, watch, steps, token):
        a.cancel(1)
        return steps[1]
    scenario = republication_scenario(change, [(1, 10.0), (2, 5.0)])
    batched = drive_pair("batched", scenario)
    assert batched == drive_pair("reference", scenario)
    assert batched[0][1][2] == 6000.0


def test_clear_slowdown_republishes():
    """Quanta of 2,000 shrink back to 1,000 after the in-flight one."""
    def change(env, a, watch, steps, token):
        a.clear_slowdown(token)
        return steps[0]
    scenario = republication_scenario(change, [(1, 10.0)], slowdown=2.0)
    batched = drive_pair("batched", scenario)
    assert batched == drive_pair("reference", scenario)
    assert batched[0][0][2] == 11_000.0


def test_a_foreign_window_stops_where_the_handed_step_arrives():
    """No observer walk: node B decides at 700 after A took a 1-object
    step at 500; B must not pre-play past A's completion at 2,000."""
    def scenario(env, a, b, watch):
        watch(a.submit(rt(1), 10.0))

        def a_step():
            yield env.timeout(500)
            hand_over(env, b, watch, watch(a.submit(rt(3), 1.0)))
        env.process(a_step())

        env.process(b_step(env, b, watch, 700))
        env.run()
    batched = drive_pair("batched", scenario)
    assert batched == drive_pair("reference", scenario)


# -- satellite regressions ----------------------------------------------------


def test_crash_counts_only_actually_failed_steps():
    """A resident item whose ``done`` already triggered (completed in
    this very instant) must not inflate the crash kill count."""
    env = Environment()
    node = DataNode(env, 0, obj_time=1000.0)
    item_done = node.submit(rt(1), 2.0)
    env.run(until=item_done)
    # Manufacture the race: re-insert the finished item as if a cascade
    # had already completed its done event, then crash.
    from repro.machine.data_node import _WorkItem
    finished = _WorkItem(rt(2), 1.0, env.event())
    finished.done.succeed()
    node._queue.append(finished)
    live = node.submit(rt(3), 3.0)
    assert node.crash() == 1  # only the live step counts
    assert live.triggered and not live.ok


def test_cancel_counts_only_actually_failed_steps():
    env = Environment()
    node = DataNode(env, 0, obj_time=1000.0)
    from repro.machine.data_node import _WorkItem
    finished = _WorkItem(rt(7), 1.0, env.event())
    finished.done.succeed()
    node._queue.append(finished)
    node.submit(rt(7), 3.0)
    assert node.cancel(7) == 1


def test_slowdown_tokens_distinguish_equal_factors():
    env = Environment()
    node = DataNode(env, 0, obj_time=1000.0)
    first = node.apply_slowdown(2.0)
    second = node.apply_slowdown(2.0)
    node.clear_slowdown(first)
    # The second, numerically equal window must still be active.
    assert node._service_time(1.0) == 2000.0
    node.clear_slowdown(second)
    assert node._service_time(1.0) == 1000.0
    with pytest.raises(ValueError):
        node.clear_slowdown(second)  # double clear is rejected


def test_invalid_node_mode_rejected():
    """The node-mode option is gone: a data node has one server loop and
    a parameter file that still selects a mode is refused."""
    env = Environment()
    with pytest.raises(TypeError):
        DataNode(env, 0, obj_time=1000.0, mode="reference")
    with pytest.raises(ConfigurationError, match="unknown parameter"):
        SimulationParameters.from_json('{"node_mode": "reference"}')


# -- the overload row: work per yielded window, not per object ----------------


def overload_workload(tid, streams):
    """One or two 400-object steps on uniform partitions, 2% writes."""
    steps = []
    for _ in range(streams.randint("overload", 1, 2)):
        partition = streams.randint("overload", 0, 63)
        if streams.uniform("overload", 0.0, 1.0) < 0.02:
            steps.append(Step.write(partition, 400.0))
        else:
            steps.append(Step.read(partition, 400.0))
    return TransactionSpec(tid, steps)


def overload_params():
    return SimulationParameters(
        scheduler="K2", arrival_rate_tps=50.0, sim_clocks=4_000.0, seed=7,
        num_partitions=64, num_nodes=64, obj_time=1.0, admission_time=2.0,
        startup_time=4.0, dd_time=2.0, commit_time=4.0, retry_delay=50.0,
        num_control_nodes=2)


def test_overload_work_per_window_is_bounded():
    """2-CN K2 on 64 data nodes at utilisation ~0.46, 400-object steps
    at obj_time=1: control events every few clocks cap each window at
    about two quanta, and several steps share a node.

    Data-node timeouts are the ``timeout_until`` calls that pass a
    ``sort_rank``; the control nodes' CPU charges go through it too,
    without one.  Per data-node timeout the weight callbacks stay within
    the peak resident count plus one (one batch per resident, one
    per-object call for the yielded quantum); the service-time
    evaluations within two (a fractional yielded quantum's and a
    fractional completion-bound tail's; a whole object's service time
    is kept per slowdown change); and the completion-bound evaluations
    within a quarter, since a pending quantum's bound is refined only
    when another node's horizon walk needs it.  Measured: 66,927
    timeouts, 65,963 of them from data nodes, peak 6 residents, and per
    data-node timeout 1.13 callbacks, no service-time evaluation and
    0.10 completion bounds.  When every non-completing quantum computed
    its bound as it was yielded there were 32,932 data-node timeouts
    (fewer: nodes then walked the horizon at every quantum and windows
    were longer) with 0.99 completion bounds and 3.93 service-time
    evaluations each.  Before the closed-form pre-play the callback
    ratio was already 2.27 here, since windows are short, but the
    completion bound's mirror replay looped once per remaining object:
    256 service-time evaluations per timeout, so host time followed the
    objects.  The metrics must equal the literal loop's.
    """
    params = overload_params()
    cluster = Cluster(params, overload_workload)
    counts = {"callbacks": 0, "timeouts": 0, "services": 0, "bounds": 0,
              "peak": 0}

    def counted(callback):
        def call(*args):
            counts["callbacks"] += 1
            callback(*args)
        return call

    def watched(node, submit):
        def call(txn, objects):
            done = submit(txn, objects)
            counts["peak"] = max(counts["peak"], node.resident_transactions)
            return done
        return call

    for node in cluster.data_nodes:
        node.on_objects = counted(node.on_objects)
        node.on_objects_batch = counted(node.on_objects_batch)
        node.submit = watched(node, node.submit)
    timeout_until = Environment.timeout_until
    service_time = DataNode._service_time
    completion_bound = DataNode._completion_bound

    def count_timeout(env, *args, **kwargs):
        counts["timeouts"] += kwargs.get("sort_rank") is not None
        return timeout_until(env, *args, **kwargs)

    def count_service(node, quantum):
        counts["services"] += 1
        return service_time(node, quantum)

    def count_bound(node, end):
        counts["bounds"] += 1
        return completion_bound(node, end)

    with mock.patch.object(Environment, "timeout_until", count_timeout), \
            mock.patch.object(DataNode, "_service_time", count_service), \
            mock.patch.object(DataNode, "_completion_bound", count_bound):
        batched = cluster.run()
    with reference_data_nodes():
        reference = Cluster(params, overload_workload).run()
    assert batched.metrics.as_dict() == reference.metrics.as_dict()
    timeouts = counts["timeouts"]
    assert timeouts > 10_000 and counts["peak"] >= 3, counts
    assert counts["callbacks"] <= (counts["peak"] + 1) * timeouts, counts
    assert counts["services"] <= 2 * timeouts, counts
    assert 0 < counts["bounds"] <= timeouts / 4, counts
