#!/usr/bin/env python
"""Run all four experiments at the paper's full 2,000,000-clock horizon.

Writes one text report per experiment to results/ (used to fill
EXPERIMENTS.md), each ending in a ``code fingerprint: <sha256>`` line
that names the simulator source it came from
(repro.experiments.runner.code_fingerprint).  Takes tens of minutes;
progress goes to stderr.

Run:  python scripts/run_paper_experiments.py [--clocks N] [--jobs J]

``--jobs`` fans each experiment's point grid over J worker processes
(repro.experiments.runner); results are identical for every J.
"""

import argparse
import sys
import time
from pathlib import Path

from repro.cli import positive_int
from repro.experiments import (ExperimentConfig, run_experiment1,
                               run_experiment2, run_experiment3,
                               run_experiment4)
from repro.experiments.experiment4 import DEFAULT_SCHEDULERS as EXP4_SCHEDULERS
from repro.experiments.report import (report_experiment1, report_experiment2,
                                      report_experiment3, report_experiment4)
from repro.experiments.runner import code_fingerprint

RESULTS = Path(__file__).resolve().parent.parent / "results"

EXP1_RATES = (0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1)
SWEEP_RATES = (0.3, 0.5, 0.7, 0.9, 1.1)


def progress(message: str) -> None:
    print(f"  [{time.strftime('%H:%M:%S')}] {message}", file=sys.stderr,
          flush=True)


def save(name: str, text: str) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}.txt"
    path.write_text(f"{text}\ncode fingerprint: {code_fingerprint()}\n")
    print(f"wrote {path}", file=sys.stderr, flush=True)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--clocks", type=float, default=2_000_000)
    parser.add_argument("--only", type=str, default="1,2,3,4")
    parser.add_argument("--jobs", type=positive_int, default=1,
                        help="worker processes per experiment grid "
                             "(results identical for every value)")
    args = parser.parse_args()
    wanted = {token.strip() for token in args.only.split(",")}

    started = time.time()
    if "1" in wanted:
        progress("experiment 1 ...")
        config = ExperimentConfig(
            sim_clocks=args.clocks, arrival_rates=EXP1_RATES,
            schedulers=("ASL", "C2PL", "CHAIN", "K2", "NODC"),
            progress=progress, max_workers=args.jobs)
        save("exp1", report_experiment1(run_experiment1(config)))
    if "2" in wanted:
        progress("experiment 2 ...")
        config = ExperimentConfig(
            sim_clocks=args.clocks, arrival_rates=SWEEP_RATES,
            schedulers=("ASL", "C2PL", "CHAIN", "K2"), progress=progress,
            max_workers=args.jobs)
        save("exp2", report_experiment2(run_experiment2(config)))
    if "3" in wanted:
        progress("experiment 3 ...")
        config = ExperimentConfig(
            sim_clocks=args.clocks, arrival_rates=SWEEP_RATES,
            schedulers=("ASL", "C2PL", "CHAIN", "K2"), progress=progress,
            max_workers=args.jobs)
        save("exp3", report_experiment3(run_experiment3(config)))
    if "4" in wanted:
        progress("experiment 4 ...")
        config = ExperimentConfig(
            sim_clocks=args.clocks, arrival_rates=SWEEP_RATES,
            schedulers=EXP4_SCHEDULERS, progress=progress,
            max_workers=args.jobs)
        save("exp4", report_experiment4(run_experiment4(config)))
    progress(f"all done in {(time.time() - started) / 60:.1f} minutes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
