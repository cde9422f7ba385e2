"""Engine speed benchmark: batched vs reference data-node loop at scale.

The scale workload is ``bulk_scan`` on 64 nodes — full-partition scans
of 512 objects at light load, the paper's overnight bulk-batch window —
where the data node's pre-played windows coalesce whole scans into
single timeouts.  ``"batched"`` is :class:`repro.machine.DataNode`;
``"reference"`` is the literal per-quantum loop of the test oracle
:class:`tests.oracles.ReferenceDataNode`.  Two claims are checked:

* **equivalence** — both loops must produce the *identical* metrics
  dict (the batched loop is an optimisation, not an approximation);
* **speed** — end-to-end sim-throughput of the batched loop must beat
  the reference per-quantum loop (>= 5x on the headline 10^5-txn rows).

The pytest entries are a cheap smoke (a few hundred transactions) so
the suite stays fast; the committed ``BENCH_engine.json`` at the repo
root comes from the full 10^4-10^6 grid, regenerated with::

    PYTHONPATH=src python benchmarks/bench_engine.py

(~15 minutes, dominated by the 10^5/10^6 reference runs).
"""

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.config import SimulationParameters
from repro.machine import run_simulation
from repro.workloads import bulk_scan, bulk_scan_catalog

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))  # the oracle lives in tests/

from tests.oracles import reference_data_nodes  # noqa: E402

NUM_NODES = 64
#: Light load: ~0.03% per-node utilization, so scans run alone between
#: scheduler events and batches approach the full 512-quantum scan.
#: (At high load every concurrent scan's quantum boundary caps every
#: other node's batching horizon and the win collapses — see
#: docs/engine.md.)
ARRIVAL_TPS = 0.002
OBJ_TIME = 20.0
SEED = 404

SMOKE_TXNS = 200

#: The committed grid: (scheduler, expected txns, modes to run).  The
#: 10^6 row runs batched-only — the reference loop would take ~45
#: minutes to simulate half a billion quanta one heap event at a time,
#: which is precisely the point of the batched loop.
FULL_GRID = (
    ("CHAIN", 10_000, ("batched", "reference")),
    ("K2", 10_000, ("batched", "reference")),
    ("C2PL", 10_000, ("batched", "reference")),
    ("CHAIN", 100_000, ("batched", "reference")),
    ("K2", 100_000, ("batched", "reference")),
    ("K2", 1_000_000, ("batched",)),
)

#: Rows whose speedup is the acceptance headline.
HEADLINE = (("CHAIN", 100_000), ("K2", 100_000))
HEADLINE_SPEEDUP = 5.0


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


# -- pytest smoke --------------------------------------------------------------

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
        # Loose floor at smoke scale; the committed grid asserts >= 5x.
        assert speedup > 1.5


# -- the committed grid --------------------------------------------------------


def run_full_grid(grid=FULL_GRID):
    """Run the scale grid and return the BENCH_engine.json payload."""
    rows = []
    for scheduler, txns, modes in grid:
        by_mode = {}
        for mode in modes:
            print(f"  running {scheduler} txns={txns} mode={mode} ...",
                  flush=True)
            wall, metrics = run_scale_point(scheduler, txns, mode)
            quanta = metrics.weight_messages
            by_mode[mode] = {
                "wall_seconds": round(wall, 3),
                "commits": metrics.commits,
                "sim_quanta": quanta,
                "quanta_per_second": round(quanta / wall),
                "txns_per_second": round(metrics.commits / wall, 1),
                "metrics_digest": json.dumps(metrics.as_dict(),
                                             sort_keys=True),
            }
        row = {"scheduler": scheduler, "txns": txns,
               "modes": {m: {k: v for k, v in d.items()
                             if k != "metrics_digest"}
                         for m, d in by_mode.items()}}
        if len(by_mode) == 2:
            assert (by_mode["batched"]["metrics_digest"]
                    == by_mode["reference"]["metrics_digest"]), (
                f"{scheduler}/{txns}: modes diverged")
            row["speedup"] = round(
                by_mode["reference"]["wall_seconds"]
                / by_mode["batched"]["wall_seconds"], 2)
            if (scheduler, txns) in HEADLINE:
                assert row["speedup"] >= HEADLINE_SPEEDUP, (
                    f"headline {scheduler}/{txns}: "
                    f"{row['speedup']}x < {HEADLINE_SPEEDUP}x")
        rows.append(row)
        print(f"    -> {row.get('speedup', 'n/a')}x", flush=True)
    return {
        "workload": "bulk_scan r(F:512) -> w(F:1)",
        "num_nodes": NUM_NODES, "arrival_rate_tps": ARRIVAL_TPS,
        "obj_time": OBJ_TIME, "seed": SEED,
        "headline_min_speedup": HEADLINE_SPEEDUP,
        "rows": rows,
    }


def write_full_grid():
    payload = run_full_grid()
    out = ROOT / "BENCH_engine.json"
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out}")
    return payload


if __name__ == "__main__":
    write_full_grid()
