#!/usr/bin/env python
"""Profile the engine hot path under the bulk-scan scale workload.

Runs one pinned-seed simulation (64 nodes, ``r(F:512) -> w(F:1)`` scans
at light load — the million-BAT regime the batched node loop targets)
under cProfile and prints the pstats table, so a hot-path regression
shows up as a changed profile rather than a vague slowdown.

Run::

    PYTHONPATH=src python scripts/profile_engine.py
    PYTHONPATH=src python scripts/profile_engine.py \\
        --scheduler CHAIN --txns 2000 --sort cumulative
    PYTHONPATH=src python scripts/profile_engine.py --dump engine.prof

The defaults mirror ``benchmarks/bench_engine.py`` exactly (same seed,
same arrival rate, same catalog), so a profile explains the speedup
that benchmark's tier-1 floor test asserts; for timings with repeats
and an environment stamp use perfbench (``perfbench/README.md``).
"""

import argparse
import cProfile
import pstats
import sys
import time

from repro.config import SimulationParameters
from repro.machine import run_simulation
from repro.workloads import bulk_scan, bulk_scan_catalog

#: Pinned defaults, shared with benchmarks/bench_engine.py.
NUM_NODES = 64
ARRIVAL_TPS = 0.002
OBJ_TIME = 20.0
SEED = 404


def scale_params(scheduler: str, txns: int,
                 num_nodes: int = NUM_NODES) -> SimulationParameters:
    """The scale-run configuration: ``txns`` expected arrivals."""
    return SimulationParameters(
        scheduler=scheduler, arrival_rate_tps=ARRIVAL_TPS,
        sim_clocks=txns * 1000.0 / ARRIVAL_TPS, seed=SEED,
        num_nodes=num_nodes, num_partitions=num_nodes, obj_time=OBJ_TIME)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scheduler", default="K2",
                        choices=("CHAIN", "K2", "C2PL", "2PL"))
    parser.add_argument("--txns", type=int, default=1000,
                        help="expected transaction count (default 1000)")
    parser.add_argument("--nodes", type=int, default=NUM_NODES)
    parser.add_argument("--sort", default="tottime",
                        choices=("tottime", "cumulative", "ncalls"))
    parser.add_argument("--lines", type=int, default=25,
                        help="pstats rows to print (default 25)")
    parser.add_argument("--dump", metavar="PATH",
                        help="also write the raw profile for snakeviz etc.")
    args = parser.parse_args()

    params = scale_params(args.scheduler, args.txns, args.nodes)
    workload = bulk_scan(num_partitions=args.nodes)
    catalog = bulk_scan_catalog(num_partitions=args.nodes,
                                num_nodes=args.nodes)

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = run_simulation(params, workload, catalog=catalog)
    profiler.disable()
    wall = time.perf_counter() - start

    metrics = result.metrics
    quanta = metrics.weight_messages
    print(f"scheduler={args.scheduler} nodes={args.nodes} seed={SEED}")
    print(f"commits={metrics.commits} quanta={quanta} "
          f"wall={wall:.2f}s "
          f"({quanta / wall:,.0f} quanta/s, "
          f"{metrics.commits / wall:,.0f} txns/s)")
    print()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.lines)
    if args.dump:
        stats.dump_stats(args.dump)
        print(f"wrote {args.dump}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
