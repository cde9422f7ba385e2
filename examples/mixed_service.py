#!/usr/bin/env python
"""Mixed service: what BATs do to on-line transactions (and vice versa).

The paper ends on an open problem: "in mixed transaction processing,
different schedulers are necessary for different classes of jobs."  This
example quantifies why.  We run an on-line stream of debit-credit-style
short transactions (~150 ms of work each) and inject a fraction of BATs
(Pattern1, ~7.2 s of bulk work), all under one partition-level scheduler,
and repeat the sweep for C2PL, CHAIN and K2.

Watch the short transactions' mean response time: a single BAT holding an
X lock on a partition stalls every short job behind it for the BAT's
whole lifetime, whichever scheduler runs.  The WTPG schedulers help the
BATs, not the short jobs — class-aware scheduling (or finer granules for
the on-line class) is the missing piece, exactly as the paper concludes.

Run:  python examples/mixed_service.py
"""

from repro import SimulationParameters, run_simulation
from repro.analysis import format_table
from repro.workloads import (MixedWorkload, pattern1, pattern1_catalog,
                             short_transactions)
from repro.workloads.mixed import BAT_LABEL, SHORT_LABEL

CLOCKS = 400_000
RATE = 2.0            # mostly short jobs, so a higher arrival rate
BAT_FRACTIONS = (0.0, 0.1, 0.2)
SCHEDULERS = ("C2PL", "CHAIN", "K2")


def run(scheduler: str, bat_fraction: float):
    workload = MixedWorkload(pattern1(16), short_transactions(16),
                             bat_fraction=bat_fraction)
    params = SimulationParameters(scheduler=scheduler, arrival_rate_tps=RATE,
                                  sim_clocks=CLOCKS, seed=21,
                                  num_partitions=16)
    return run_simulation(params, workload, catalog=pattern1_catalog())


def main() -> None:
    print(__doc__)
    rows = []
    inflation = {}
    for scheduler in SCHEDULERS:
        short_rts = []
        for fraction in BAT_FRACTIONS:
            metrics = run(scheduler, fraction).metrics
            by_label = metrics.response_time_by_label
            short_rts.append(by_label.get(SHORT_LABEL, float("nan")) / 1000)
            bat_rt = by_label.get(BAT_LABEL, float("nan")) / 1000
            rows.append((scheduler, f"{fraction:.0%}",
                         f"{metrics.throughput_tps:.2f}",
                         f"{short_rts[-1]:.2f}",
                         "-" if fraction == 0 else f"{bat_rt:.1f}"))
        inflation[scheduler] = short_rts[-1] / short_rts[0]
    print(format_table(["scheduler", "BAT share", "total TPS",
                        "short-txn RT (s)", "BAT RT (s)"], rows))
    print()
    for scheduler, factor in inflation.items():
        print(f"  {scheduler}: mixing in {BAT_FRACTIONS[-1]:.0%} BATs "
              f"inflates the on-line class's response time {factor:.1f}x")
    print("Partition-granule locks make the classes incompatible under "
          "every scheduler,\nwhich is the paper's closing argument.")


if __name__ == "__main__":
    main()
