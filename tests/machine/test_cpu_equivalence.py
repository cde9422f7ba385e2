"""The closed-form control-node CPU vs the generic FIFO resource.

:meth:`ControlShard.charge` grants a charge at ``max(now, free_at)`` and
pushes one heap entry, its end; :func:`tests.oracles.reference_cpu`
swaps back :meth:`~tests.oracles.cpu.Resource.hold`, which pushes a
zero-delay marker at the grant and the end from the marker's callback.
Every end gets the same ``(when, sort_time)`` either way; only its order
number is drawn at the claim instead of at the grant.  So a run without
two CPU ends of different CNs tying on ``(when, sort_time)`` is
byte-identical in metrics and trace, resumes the same generators, and
draws one schedule order less per charge granted before the run
stopped.  A run with such a tie fires those ends in claim order instead
of grant order, which is valid FIFO too.
"""

import json
from contextlib import nullcontext
from heapq import heappush
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SimulationParameters
from repro.engine import Environment, core
from repro.engine.core import Process
from repro.faults import ControlCrash, FaultPlan, NodeCrash
from repro.machine.cluster import Cluster
from repro.machine.shard import ControlShard
from repro.machine.trace import Tracer
from repro.workloads import pattern1, pattern1_catalog
from tests.oracles import Resource, reference_cpu

CASES = {
    "1cn-K2": (1, "K2", FaultPlan(abort_rate=0.1, cascade=True)),
    "2cn-CHAIN-cn-crash": (2, "CHAIN", FaultPlan(
        control_crashes=(ControlCrash(0, 40_000.0, recover_at=60_000.0),
                         ControlCrash(1, 100_000.0, recover_at=110_000.0)),
        abort_rate=0.1, cascade=True)),
    "2cn-2PL-dn-crash": (2, "2PL", FaultPlan(
        crashes=(NodeCrash(2, 30_000.0, recover_at=50_000.0),),
        abort_rate=0.05)),
}

#: Cases with no same-instant tie between CPU ends of different CNs.
UNTIED = ("1cn-K2", "2cn-2PL-dn-crash")


def fingerprint(case, oracle):
    """Run ``case``; return the result, its bytes and its work counts."""
    control_nodes, scheduler, plan = CASES[case]
    params = SimulationParameters(scheduler=scheduler, arrival_rate_tps=0.7,
                                  sim_clocks=150_000, seed=5,
                                  num_partitions=16,
                                  num_control_nodes=control_nodes)
    cluster = Cluster(params, pattern1(), catalog=pattern1_catalog(),
                      tracer=Tracer(), fault_plan=plan)
    resume, hold = Process._resume, Resource.hold
    counts = {"resumes": 0, "holds": 0}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapper

    with reference_cpu() if oracle else nullcontext() as cpus, \
            mock.patch.object(Process, "_resume", counted("resumes", resume)), \
            mock.patch.object(Resource, "hold", counted("holds", hold)):
        result = cluster.run()
        # Cluster.run reads utilization inside the block: the oracle
        # resources are still the ones charged.
        counts["queued"] = (sum(cpu.queue_length for cpu in cpus.values())
                            if oracle else 0)
    counts["granted"] = counts["holds"] - counts["queued"]
    trace = "\n".join(event.to_json() for event in result.tracer.events)
    metrics = json.dumps(result.metrics.as_dict(), sort_keys=True)
    return result, (metrics, trace, next(cluster.env._seq)), counts


@pytest.mark.parametrize("case", UNTIED)
def test_hold_runs_are_byte_identical_to_the_generator(case):
    _, closed, closed_counts = fingerprint(case, oracle=False)
    _, literal, literal_counts = fingerprint(case, oracle=True)
    assert closed[0] == literal[0], "metrics diverged"
    assert closed[1] == literal[1], "trace diverged"
    # Same charges, each resuming its coordinator once.  Each charge
    # granted before the run stopped saves exactly its marker entry; one
    # still queued there has its end pushed already.
    granted, queued = literal_counts["granted"], literal_counts["queued"]
    assert granted > 100 and closed_counts["holds"] == 0
    assert closed_counts["resumes"] == literal_counts["resumes"]
    assert closed[2] == literal[2] - granted + queued, "heap schedule counts"


def test_tied_cpu_ends_keep_a_valid_run():
    """``2cn-CHAIN-cn-crash`` has CPU ends of both CNs tying on
    ``(when, sort_time)``: the runs part there, and both stay valid."""
    closed, closed_bytes, _ = fingerprint("2cn-CHAIN-cn-crash", oracle=False)
    literal, literal_bytes, _ = fingerprint("2cn-CHAIN-cn-crash",
                                            oracle=True)
    closed.validate()
    literal.validate()
    assert closed.metrics.arrivals == literal.metrics.arrivals
    assert closed_bytes[1] != literal_bytes[1]


def test_tied_ends_of_two_cpus_fire_in_claim_order():
    """Two CPUs free at the same instant, each with a queued equal-cost
    charge: the ends fire in the order the charges were claimed, not in
    the order their CPUs were first taken (the oracle's grant order)."""

    def fired(oracle):
        env = Environment()
        with reference_cpu() if oracle else nullcontext():
            first, second = (ControlShard(sid, env, None, logged=False)
                             for sid in (0, 1))
            log = []

            def claim(shard, at, cost, name):
                yield env.timeout(at)
                yield shard.charge(cost)
                log.append((env.now, name))

            env.process(claim(first, 0, 10, "first busy"))
            env.process(claim(second, 0, 10, "second busy"))
            env.process(claim(second, 1, 5, "second queued"))
            env.process(claim(first, 2, 5, "first queued"))
            env.run()
        return log

    assert fired(oracle=False) == [
        (10, "first busy"), (10, "second busy"),
        (15, "second queued"), (15, "first queued")]
    assert fired(oracle=True)[2:] == [(15, "first queued"),
                                      (15, "second queued")]


_CLAIMS = st.lists(
    st.tuples(st.floats(0.0, 60.0, allow_nan=False),
              st.just(0.0) | st.floats(0.0, 25.0, allow_nan=False)),
    min_size=1, max_size=12)


def _serve(claims, cutoff, oracle):
    """Claim ``(instant, cost)`` charges on one CPU; return each charge's
    end instant with the ``(when, sort_time, rank)`` key of its heap
    entry, and the busy time at ``cutoff`` and at the end."""
    env = Environment()
    keys = {}

    def push(heap, entry):
        keys[entry[-1]] = entry[:-2]
        heappush(heap, entry)

    with reference_cpu() if oracle else nullcontext(), \
            mock.patch.object(core, "heappush", push):
        shard = ControlShard(0, env, None, logged=False)
        ends = {}

        def claim(ident, at, cost):
            yield env.timeout_until(at)
            end = shard.charge(cost)
            yield end
            ends[ident] = (env.now, keys[end])

        for ident, (at, cost) in enumerate(claims):
            env.process(claim(ident, at, cost))
        env.run(until=cutoff)
        mid = shard.busy_time()
        env.run()
        return ends, mid, shard.busy_time(), env.now


@settings(max_examples=300, deadline=None)
@given(_CLAIMS, st.floats(0.0, 120.0, allow_nan=False))
def test_fifo_server_matches_resource_hold(claims, cutoff):
    """Random claim instants and costs (zero included), read across a
    run(until=) cutoff that may fall inside a charge: end instants, end
    heap keys and busy times equal the oracle's bit for bit."""
    assert (_serve(claims, cutoff, oracle=False)
            == _serve(claims, cutoff, oracle=True))
