"""One-event CPU holds vs the request/timeout/release generator.

:meth:`ControlShard.cpu_work` charges the control node's CPU with one
:meth:`~repro.engine.Resource.hold`; :func:`tests.oracles.reference_cpu`
swaps back the generator it replaced.  The two must schedule the same
heap entries in the same order, so runs under either are byte-identical
in metrics and trace and draw the same number of schedule orders, while
the hold resumes the coordinator once less per positive charge.
"""

import json
from contextlib import nullcontext
from unittest import mock

import pytest

from repro.config import SimulationParameters
from repro.engine import Resource
from repro.engine.core import Process
from repro.faults import ControlCrash, FaultPlan, NodeCrash
from repro.machine.cluster import Cluster
from repro.machine.trace import Tracer
from repro.workloads import pattern1, pattern1_catalog
from tests.oracles import reference_cpu

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


def fingerprint(case, oracle):
    """Run ``case``; return its bytes and its engine work counts."""
    control_nodes, scheduler, plan = CASES[case]
    params = SimulationParameters(scheduler=scheduler, arrival_rate_tps=0.7,
                                  sim_clocks=150_000, seed=5,
                                  num_partitions=16,
                                  num_control_nodes=control_nodes)
    cluster = Cluster(params, pattern1(), catalog=pattern1_catalog(),
                      tracer=Tracer(), fault_plan=plan)
    resume = Process._resume
    hold, request = Resource.hold, Resource.request
    counts = {"resumes": 0, "holds": 0, "requests": 0, "queued": 0}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapper

    with reference_cpu() if oracle else nullcontext(), \
            mock.patch.object(Process, "_resume", counted("resumes", resume)), \
            mock.patch.object(Resource, "hold", counted("holds", hold)), \
            mock.patch.object(Resource, "request",
                              counted("requests", request)):
        result = cluster.run()
    counts["queued"] = sum(shard.cpu.queue_length
                           for shard in cluster.control_plane.shards)
    trace = "\n".join(event.to_json() for event in result.tracer.events)
    metrics = json.dumps(result.metrics.as_dict(), sort_keys=True)
    return (metrics, trace, next(cluster.env._seq)), counts


@pytest.mark.parametrize("case", sorted(CASES))
def test_hold_runs_are_byte_identical_to_the_generator(case):
    held, held_counts = fingerprint(case, oracle=False)
    literal, literal_counts = fingerprint(case, oracle=True)
    assert held[0] == literal[0], "metrics diverged"
    assert held[1] == literal[1], "trace diverged"
    assert held[2] == literal[2], "heap schedule counts diverged"
    # Same charges, one per positive cost; each one granted before the
    # run stopped saves exactly the coordinator's resume at the grant.
    charges, queued = held_counts["holds"], held_counts["queued"]
    assert charges > 100 and held_counts["requests"] == 0
    assert literal_counts == {
        "resumes": held_counts["resumes"] + charges - queued,
        "holds": 0, "requests": charges, "queued": queued}
