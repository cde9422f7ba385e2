"""Sampled observability: the Tracer sample_rate switch."""

from unittest import mock

import pytest

from repro.config import SimulationParameters
from repro.machine.cluster import Cluster
from repro.machine.trace import EventType, Tracer, validate_trace
from repro.workloads import pattern1, pattern1_catalog


def run_with(tracer, **overrides):
    params = SimulationParameters(scheduler="K2", arrival_rate_tps=0.6,
                                  sim_clocks=60_000, seed=7,
                                  num_partitions=16, **overrides)
    cluster = Cluster(params, pattern1(), catalog=pattern1_catalog(),
                      tracer=tracer)
    cluster.run()
    return tracer


def trace_bytes(tracer):
    return "\n".join(e.to_json() for e in tracer.events)


def test_rate_one_is_bit_identical_to_unsampled():
    full = run_with(Tracer())
    sampled = run_with(Tracer(sample_rate=1.0))
    assert trace_bytes(full) == trace_bytes(sampled)


def test_sampling_keeps_whole_transactions():
    full = run_with(Tracer())
    half = run_with(Tracer(sample_rate=0.5))
    kept = set(half.transactions())
    assert 0 < len(kept) < len(full.transactions())
    # Every kept transaction's timeline is byte-identical to the full
    # trace's — sampling drops whole transactions, never single events.
    for tid in kept:
        assert ([e.to_json() for e in half.timeline(tid)]
                == [e.to_json() for e in full.timeline(tid)])
    # The sampled trace still passes lifecycle validation.
    validate_trace(half)


def test_sampling_decision_is_deterministic():
    first = run_with(Tracer(sample_rate=0.3))
    second = run_with(Tracer(sample_rate=0.3))
    assert trace_bytes(first) == trace_bytes(second)


def test_rate_zero_keeps_only_machine_events():
    tracer = run_with(Tracer(sample_rate=0.0))
    assert all(e.tid < 0 for e in tracer.events)


def test_machine_events_survive_sampling():
    from repro.faults import FaultPlan, NodeCrash
    params = SimulationParameters(scheduler="K2", arrival_rate_tps=0.6,
                                  sim_clocks=60_000, seed=7,
                                  num_partitions=16)
    tracer = Tracer(sample_rate=0.0)
    plan = FaultPlan(crashes=(NodeCrash(2, 15_000.0, recover_at=25_000.0),))
    Cluster(params, pattern1(), catalog=pattern1_catalog(),
            tracer=tracer, fault_plan=plan).run()
    kinds = {e.kind for e in tracer.events}
    assert EventType.NODE_CRASHED in kinds


def test_invalid_rates_rejected():
    with pytest.raises(ValueError):
        Tracer(sample_rate=1.5)
    with pytest.raises(ValueError):
        Tracer(sample_rate=-0.1)


def test_unsampled_transactions_build_no_records():
    """The coordinator asks the tracer once per BAT and emits only the
    records it keeps, so no call is made for an unsampled transaction."""
    tracer = Tracer(sample_rate=0.3)
    with mock.patch.object(Tracer, "emit", autospec=True,
                           side_effect=Tracer.emit) as emit:
        run_with(tracer)
    assert 0 < emit.call_count == len(tracer.events)
