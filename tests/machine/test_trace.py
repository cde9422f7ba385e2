"""Tests for the tracing subsystem and traced full runs."""

import pytest

from repro import SimulationParameters
from repro.errors import SimulationError
from repro.machine import Cluster
from repro.machine.trace import (EventType, TraceEvent, Tracer,
                                 validate_trace)
from repro.workloads import pattern1, pattern1_catalog


def traced_run(scheduler="C2PL", clocks=150_000, rate=0.5, seed=3):
    tracer = Tracer()
    params = SimulationParameters(scheduler=scheduler, arrival_rate_tps=rate,
                                  sim_clocks=clocks, seed=seed,
                                  num_partitions=16)
    cluster = Cluster(params, pattern1(), catalog=pattern1_catalog(),
                      tracer=tracer)
    result = cluster.run()
    return tracer, result


class TestTracer:
    def test_emit_and_query(self):
        tracer = Tracer()
        tracer.emit(1.0, EventType.ARRIVAL, 5)
        tracer.emit(2.0, EventType.ADMITTED, 5, attempts=1)
        tracer.emit(3.0, EventType.ARRIVAL, 6)
        assert len(tracer) == 3
        assert tracer.transactions() == [5, 6]
        assert [e.kind for e in tracer.timeline(5)] == [
            EventType.ARRIVAL, EventType.ADMITTED]
        assert tracer.count(EventType.ARRIVAL) == 2
        assert tracer.summary()["arrival"] == 2

    def test_json_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.emit(1.5, EventType.LOCK_GRANTED, 2, partition=4, mode="X")
        path = tmp_path / "trace.jsonl"
        tracer.dump_jsonl(path)
        loaded = Tracer.load_jsonl(path)
        assert len(loaded) == 1
        event = loaded.events[0]
        assert event.kind is EventType.LOCK_GRANTED
        assert event.detail == {"partition": 4, "mode": "X"}
        assert event.time == 1.5

    def test_event_json_stable(self):
        event = TraceEvent(1.0, EventType.COMMITTED, 9, {"x": 1})
        assert TraceEvent.from_json(event.to_json()) == event


class TestValidator:
    def test_valid_lifecycle_passes(self):
        tracer = Tracer()
        tracer.emit(0, EventType.ARRIVAL, 1)
        tracer.emit(1, EventType.ADMITTED, 1)
        tracer.emit(2, EventType.LOCK_GRANTED, 1)
        tracer.emit(2, EventType.STEP_DISPATCHED, 1)
        tracer.emit(5, EventType.STEP_COMPLETED, 1)
        tracer.emit(6, EventType.COMMITTED, 1)
        validate_trace(tracer)

    def test_commit_without_admission_rejected(self):
        tracer = Tracer()
        tracer.emit(0, EventType.ARRIVAL, 1)
        tracer.emit(1, EventType.COMMITTED, 1)
        with pytest.raises(SimulationError, match="without admission"):
            validate_trace(tracer)

    def test_event_before_arrival_rejected(self):
        tracer = Tracer()
        tracer.emit(0, EventType.ADMITTED, 1)
        with pytest.raises(SimulationError, match="before arrival"):
            validate_trace(tracer)

    def test_time_reversal_rejected(self):
        tracer = Tracer()
        tracer.emit(5, EventType.ARRIVAL, 1)
        tracer.emit(3, EventType.ADMITTED, 1)
        with pytest.raises(SimulationError, match="backwards"):
            validate_trace(tracer)

    def test_event_after_commit_rejected(self):
        tracer = Tracer()
        tracer.emit(0, EventType.ARRIVAL, 1)
        tracer.emit(1, EventType.ADMITTED, 1)
        tracer.emit(2, EventType.COMMITTED, 1)
        tracer.emit(3, EventType.LOCK_GRANTED, 1)
        with pytest.raises(SimulationError, match="after commit"):
            validate_trace(tracer)

    def test_dispatch_completion_mismatch_rejected(self):
        tracer = Tracer()
        tracer.emit(0, EventType.ARRIVAL, 1)
        tracer.emit(1, EventType.ADMITTED, 1)
        tracer.emit(2, EventType.LOCK_GRANTED, 1)
        tracer.emit(2, EventType.STEP_DISPATCHED, 1)
        tracer.emit(3, EventType.COMMITTED, 1)
        with pytest.raises(SimulationError, match="dispatches"):
            validate_trace(tracer)


class TestTracedRuns:
    @pytest.mark.parametrize("scheduler", ["C2PL", "CHAIN", "K2", "ASL"])
    def test_full_run_traces_are_well_formed(self, scheduler):
        tracer, result = traced_run(scheduler=scheduler)
        assert result.metrics.commits > 0
        validate_trace(tracer)
        assert tracer.count(EventType.COMMITTED) == result.metrics.commits

    def test_pattern1_commits_have_four_grants(self):
        tracer, _ = traced_run()
        for tid in tracer.transactions():
            events = tracer.timeline(tid)
            if any(e.kind is EventType.COMMITTED for e in events):
                grants = [e for e in events
                          if e.kind is EventType.LOCK_GRANTED]
                assert len(grants) == 4  # Pattern1 has four steps

    def test_retry_events_recorded_under_contention(self):
        tracer, result = traced_run(scheduler="C2PL", rate=0.8)
        retries = (tracer.count(EventType.LOCK_BLOCKED)
                   + tracer.count(EventType.LOCK_DELAYED))
        assert retries == result.metrics.lock_retries

    def test_retry_events_match_retries_under_cn_crashes(self):
        """On two CNs under CHAIN with CN crashes, every counted retry
        is one traced BLOCK or DELAY: holder blocks, CHAIN delays and
        stalls on a down CN alike.  The same run untraced parks its
        zero-cost refusals and must count the same retries."""
        from repro.faults import ControlCrash, FaultPlan
        plan = FaultPlan(
            control_crashes=(ControlCrash(0, 40_000.0, recover_at=60_000.0),
                             ControlCrash(1, 100_000.0,
                                          recover_at=110_000.0)),
            abort_rate=0.1, cascade=True)
        params = SimulationParameters(
            scheduler="CHAIN", arrival_rate_tps=0.7, sim_clocks=150_000,
            seed=5, num_partitions=16, num_control_nodes=2)
        tracer = Tracer()
        traced = Cluster(params, pattern1(), catalog=pattern1_catalog(),
                         tracer=tracer, fault_plan=plan).run()
        retries = (tracer.count(EventType.LOCK_BLOCKED)
                   + tracer.count(EventType.LOCK_DELAYED))
        assert traced.metrics.cn_crashes == 2
        assert retries > 0
        assert retries == traced.metrics.lock_retries
        untraced = Cluster(params, pattern1(), catalog=pattern1_catalog(),
                           fault_plan=plan).run()
        assert untraced.metrics.lock_retries == retries

    def test_asl_rejections_traced(self):
        tracer, _ = traced_run(scheduler="ASL", rate=0.8)
        assert tracer.count(EventType.ADMISSION_REJECTED) > 0

    def test_dispatch_node_matches_placement(self):
        tracer, _ = traced_run()
        catalog = pattern1_catalog()
        # Each dispatch follows a grant for the same txn/step, and goes to
        # the node the catalog places that step's partition on.
        by_key = {(e.tid, e.detail["step"]): e.detail["partition"]
                  for e in tracer.of_kind(EventType.LOCK_GRANTED)}
        dispatched = tracer.of_kind(EventType.STEP_DISPATCHED)
        assert dispatched
        for event in dispatched:
            partition = by_key[(event.tid, event.detail["step"])]
            assert event.detail["node"] == catalog.partition(partition).node
