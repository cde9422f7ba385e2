"""End-to-end E(q) differential: whole K-WTPG runs, overlay vs oracle.

``tests/core/test_estimator_equivalence.py`` compares the two
estimators value by value on generated graphs.  This module compares
them where the scheduler uses them: a full simulation whose every grant
decision with rivals evaluates E(q) through the copy-free
:class:`~repro.core.estimator.ContentionBatch` (and every uncontested one
takes the scheduler's cycle-check shortcut), against the same run with
:func:`tests.oracles.reference_estimator` swapping in the deep-copy
oracle and sending every decision down the full rule.  Metrics JSON,
the full trace and the scheduler stats must be byte-identical, and the
oracle must really have answered every estimate the scheduler counted.
The identity also proves that the shortcut's GRANTs, which cache
nothing, leave no key a later decision reads: such a read is free under
the full rule and would change the stats.
"""

import json
from unittest import mock

import pytest

from repro.config import SimulationParameters
from repro.faults import FaultPlan
from repro.machine.cluster import Cluster
from repro.machine.trace import Tracer
from repro.workloads import (pattern1, pattern1_catalog, pattern2,
                             pattern2_catalog)
from tests.oracles import estimate_reference, reference_estimator

SCHEDULERS = {
    "K2": {},
    # A looser K admits wider WTPGs than K2 does.
    "KWTPG": {"k_conflicts": 3},
}

WORKLOADS = {
    "pattern1": (pattern1, pattern1_catalog),
    "pattern2": (pattern2, pattern2_catalog),
}

PLANS = {
    "none": None,
    "abort-cascade": FaultPlan(abort_rate=0.1, cascade=True),
}


def run(scheduler, workload, plan):
    """One traced run: (metrics JSON, trace, scheduler stats)."""
    params = SimulationParameters(scheduler=scheduler, arrival_rate_tps=0.9,
                                  sim_clocks=100_000, seed=3,
                                  **SCHEDULERS[scheduler])
    make_workload, make_catalog = WORKLOADS[workload]
    tracer = Tracer()
    result = Cluster(params, make_workload(), catalog=make_catalog(),
                     tracer=tracer, fault_plan=PLANS[plan]).run()
    metrics = json.dumps(result.metrics.as_dict(), sort_keys=True)
    trace = "\n".join(event.to_json() for event in tracer.events)
    return metrics, trace, result.scheduler.stats


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_overlay_run_equals_oracle_run(scheduler, workload, plan):
    overlay_metrics, overlay_trace, overlay_stats = run(
        scheduler, workload, plan)
    with reference_estimator(), mock.patch(
            "tests.oracles.estimator.estimate_reference",
            wraps=estimate_reference) as oracle:
        oracle_metrics, oracle_trace, oracle_stats = run(
            scheduler, workload, plan)
    assert overlay_stats.estimator_calls > 0
    assert oracle.call_count == oracle_stats.estimator_calls
    assert oracle_stats.as_dict() == overlay_stats.as_dict()
    assert oracle_metrics == overlay_metrics, "metrics diverged"
    assert oracle_trace == overlay_trace, "trace diverged"
