"""Engine speed benchmark: batched vs reference data-node loop.

The scale workload is ``bulk_scan`` on 64 nodes — full-partition scans
of 512 objects at light load, the paper's overnight bulk-batch window —
where the data node's pre-played windows coalesce whole scans into
single timeouts.  ``"batched"`` is :class:`repro.machine.DataNode`;
``"reference"`` is the literal per-quantum loop of the test oracle
:class:`tests.oracles.ReferenceDataNode`.  Two claims are checked, per
scheduler, plus a cheap K2 smoke (one run per loop, a 1.5x floor):

* **equivalence** — both loops must produce the *identical* metrics
  dict (the batched loop is an optimisation, not an approximation);
* **speed** — the batched loop must run the same simulation at least
  ``HEADLINE_SPEEDUP`` times faster than the reference per-quantum loop.

Float drift at scale is pinned separately by
``tests/machine/test_node_equivalence.py::test_million_quanta_no_float_drift``;
the repo's end-to-end timings come from perfbench (``BENCHMARK.json``).
"""

import time
from contextlib import nullcontext

import pytest

from repro.config import SimulationParameters
from repro.machine import run_simulation
from repro.workloads import bulk_scan, bulk_scan_catalog

from tests.oracles import reference_data_nodes

NUM_NODES = 64
#: Light load: ~0.03% per-node utilization, so scans run alone between
#: scheduler events and batches approach the full 512-quantum scan.
#: (At high load every concurrent scan's quantum boundary caps every
#: other node's batching horizon and the win collapses — see
#: docs/engine.md.)
ARRIVAL_TPS = 0.002
OBJ_TIME = 20.0
SEED = 404

#: Transactions per timed run, and interleaved runs per mode; the floor
#: compares each mode's fastest run, so one noisy run cannot decide it.
FLOOR_TXNS = 500
FLOOR_REPEATS = 3
HEADLINE_SPEEDUP = 5.0

#: The cheap K2 smoke: one run per loop, a loose floor.
SMOKE_TXNS = 200
SMOKE_SPEEDUP = 1.5


def scale_params(scheduler, txns):
    return SimulationParameters(
        scheduler=scheduler, arrival_rate_tps=ARRIVAL_TPS,
        sim_clocks=txns * 1000.0 / ARRIVAL_TPS, seed=SEED,
        num_nodes=NUM_NODES, num_partitions=NUM_NODES, obj_time=OBJ_TIME)


def run_scale_point(scheduler, txns, mode):
    """One timed scale run; returns (wall seconds, metrics)."""
    params = scale_params(scheduler, txns)
    workload = bulk_scan(num_partitions=NUM_NODES)
    catalog = bulk_scan_catalog(num_partitions=NUM_NODES,
                                num_nodes=NUM_NODES)
    loop = reference_data_nodes() if mode == "reference" else nullcontext()
    start = time.perf_counter()
    with loop:
        result = run_simulation(params, workload, catalog=catalog)
    return time.perf_counter() - start, result.metrics


_smoke = {}


@pytest.mark.parametrize("mode", ("batched", "reference"))
def test_smoke_modes_are_equivalent_and_batched_wins(benchmark, mode):
    def one():
        return run_scale_point("K2", SMOKE_TXNS, mode)

    wall, metrics = benchmark.pedantic(one, rounds=1, iterations=1)
    assert metrics.commits > 0
    _smoke[mode] = (wall, metrics)
    if len(_smoke) == 2:
        b_wall, b_metrics = _smoke["batched"]
        r_wall, r_metrics = _smoke["reference"]
        # The optimisation must be invisible in every simulated number.
        assert b_metrics.as_dict() == r_metrics.as_dict()
        speedup = r_wall / b_wall
        print(f"\nsmoke speedup (K2, {SMOKE_TXNS} txns): {speedup:.1f}x")
        # Loose floor for one run per loop; the floor tests below
        # compare repeated runs against HEADLINE_SPEEDUP.
        assert speedup > SMOKE_SPEEDUP


@pytest.mark.parametrize("scheduler", ("CHAIN", "K2"))
def test_batched_equals_reference_and_clears_speedup_floor(scheduler):
    runs = {"batched": [], "reference": []}
    for _ in range(FLOOR_REPEATS):
        for mode, timed in runs.items():
            wall, metrics = run_scale_point(scheduler, FLOOR_TXNS, mode)
            assert metrics.commits > 0
            timed.append((wall, metrics.as_dict()))
    # The optimisation must be invisible in every simulated number.
    first = runs["batched"][0][1]
    assert all(m == first for timed in runs.values() for _, m in timed)
    speedup = (min(w for w, _ in runs["reference"])
               / min(w for w, _ in runs["batched"]))
    print(f"\nbatched speedup ({scheduler}, {FLOOR_TXNS} txns): "
          f"{speedup:.1f}x")
    assert speedup >= HEADLINE_SPEEDUP, (
        f"{scheduler}: batched loop only {speedup:.2f}x faster than the "
        f"reference loop (floor {HEADLINE_SPEEDUP}x)")
