"""Command-line interface: run simulations and regenerate paper figures.

Usage examples::

    python -m repro table1
    python -m repro run --scheduler K2 --rate 0.5 --clocks 400000
    python -m repro exp1 --clocks 400000
    python -m repro exp2 --clocks 400000 --num-hots 4,8
    python -m repro exp4 --sigmas 0,0.5,1 --clocks 400000

``--clocks 2000000`` (the default) reproduces the paper's full-length
runs; smaller values trade fidelity for speed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis import format_table
from repro.config import SimulationParameters
from repro.errors import ConfigurationError
from repro.experiments import (ExperimentConfig, run_experiment1,
                               run_experiment2, run_experiment3,
                               run_experiment4)
from repro.experiments.experiment4 import DEFAULT_SCHEDULERS as EXP4_SCHEDULERS
from repro.experiments.report import (report_experiment1, report_experiment2,
                                      report_experiment3, report_experiment4)
from repro.faults import FaultPlan
from repro.machine import run_simulation
from repro.workloads import pattern1, pattern1_catalog


def _floats(text: str) -> List[float]:
    return [float(token) for token in text.split(",") if token.strip()]


def _ints(text: str) -> List[int]:
    return [int(token) for token in text.split(",") if token.strip()]


def _names(text: str) -> List[str]:
    return [token.strip().upper() for token in text.split(",") if token.strip()]


def positive_int(text: str) -> int:
    """argparse ``type=`` for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _experiment_config(args: argparse.Namespace,
                       default_schedulers: Sequence[str]) -> ExperimentConfig:
    return ExperimentConfig(
        sim_clocks=args.clocks,
        seed=args.seed,
        schedulers=(_names(args.schedulers) if args.schedulers
                    else tuple(default_schedulers)),
        arrival_rates=(tuple(_floats(args.rates)) if args.rates
                       else ExperimentConfig().arrival_rates),
        progress=(None if args.quiet
                  else lambda message: print(f"  [{message}]",
                                             file=sys.stderr)),
        max_workers=args.jobs,
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clocks", type=float, default=2_000_000,
                        help="simulation horizon in clocks (1 clock = 1 ms)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rates", type=str, default=None,
                        help="comma-separated arrival rates (TPS)")
    parser.add_argument("--schedulers", type=str, default=None,
                        help="comma-separated scheduler names")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-point progress lines")
    parser.add_argument("--jobs", type=positive_int, default=1,
                        help="worker processes for the point grid "
                             "(results identical for every value)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WTPG concurrency control for BATs (ICDE 1990) — "
                    "simulations and paper experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="print the Table 1 parameters")

    run = sub.add_parser("run", help="one simulation run with Pattern1")
    run.add_argument("--scheduler", default="K2")
    run.add_argument("--rate", type=float, default=0.5)
    run.add_argument("--clocks", type=float, default=400_000)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--control-nodes", type=int, default=1,
                     help="shard the control plane over N control nodes "
                          "(partition p -> CN p mod N; cross-shard BATs "
                          "commit by 2PC, see docs/control_plane.md)")
    run.add_argument("--faults", type=str, default=None, metavar="PLAN.json",
                     help="fault-injection plan (JSON, see docs/faults.md)")

    verify = sub.add_parser(
        "verify", help="check every paper claim on scaled runs (PASS/FAIL)")
    verify.add_argument("--clocks", type=float, default=200_000)
    verify.add_argument("--seed", type=int, default=1)
    verify.add_argument("--quiet", action="store_true")

    for name, help_text in (
            ("exp1", "Figures 6-7: arrival rate sweep, Pattern1"),
            ("exp2", "Figure 8: hot-set sizes, Pattern2"),
            ("exp3", "Figure 9: arrival rate sweep, Pattern3"),
            ("exp4", "Figure 10: declared-cost error sweep")):
        exp = sub.add_parser(name, help=help_text)
        _add_common(exp)
        if name == "exp2":
            exp.add_argument("--num-hots", type=str, default="4,8,16,32")
        if name == "exp4":
            exp.add_argument("--sigmas", type=str, default="0,0.25,0.5,0.75,1")

    return parser


def _cmd_table1() -> int:
    table = SimulationParameters().table1()
    print("Table 1: simulation parameters")
    print(format_table(["parameter", "value"], list(table.items())))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        params = SimulationParameters(scheduler=args.scheduler,
                                      arrival_rate_tps=args.rate,
                                      sim_clocks=args.clocks, seed=args.seed,
                                      num_partitions=16,
                                      num_control_nodes=args.control_nodes)
        fault_plan = (None if args.faults is None
                      else FaultPlan.from_file(args.faults))
        result = run_simulation(params, pattern1(),
                                catalog=pattern1_catalog(),
                                fault_plan=fault_plan)
    except (ConfigurationError, OSError) as exc:
        # Bad flags or an unreadable/malformed plan: one line, exit 2
        # (argparse's usage-error code), no traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    m = result.metrics
    rows = [
        ("scheduler", m.scheduler),
        ("arrival rate", f"{m.arrival_rate_tps:g} TPS"),
        ("arrivals", m.arrivals),
        ("commits", m.commits),
        ("throughput", f"{m.throughput_tps:.3f} TPS"),
        ("mean response time", f"{m.mean_response_time / 1000:.1f} s"),
        ("DN utilization", f"{m.dn_utilization:.1%}"),
        ("CN utilization", f"{m.cn_utilization:.1%}"),
        ("lock retries", m.lock_retries),
    ]
    if args.control_nodes > 1:
        rows += [
            ("CN utilization (per shard)",
             " ".join(f"{u:.1%}" for u in m.cn_utilizations)),
            ("2PC commit rounds", m.twopc_rounds),
        ]
    if m.cn_crashes or m.cn_recoveries:
        rows += [
            ("CN crashes", m.cn_crashes),
            ("CN recoveries", m.cn_recoveries),
            ("log records recovered", m.recovery_records),
            ("recovery downtime", f"{m.recovery_clocks:.0f} clocks"),
        ]
    if fault_plan is not None:
        rows += [
            ("aborts (all causes)", m.aborts),
            ("  injected", m.fault_aborts),
            ("  node crash", m.crash_aborts),
            ("  cascade", m.cascade_aborts),
            ("restarts completed", m.restarts),
            ("node crashes", m.node_crashes),
            ("wasted objects", f"{m.wasted_objects:.1f}"),
            ("fault timeline events", len(m.fault_timeline)),
        ]
    print(format_table(["metric", "value"], rows))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "table1":
        return _cmd_table1()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        from repro.experiments.verify import (report_verification,
                                              verify_paper_claims)
        progress = (None if args.quiet else
                    lambda message: print(f"  [{message}]", file=sys.stderr))
        checks = verify_paper_claims(sim_clocks=args.clocks, seed=args.seed,
                                     progress=progress)
        print(report_verification(checks))
        return 0 if all(c.passed for c in checks) else 1
    if args.command == "exp1":
        config = _experiment_config(args, ("ASL", "C2PL", "CHAIN", "K2",
                                           "NODC"))
        print(report_experiment1(run_experiment1(config)))
        return 0
    if args.command == "exp2":
        config = _experiment_config(args, ("ASL", "C2PL", "CHAIN", "K2"))
        result = run_experiment2(config,
                                 num_hots_values=_ints(args.num_hots))
        print(report_experiment2(result))
        return 0
    if args.command == "exp3":
        config = _experiment_config(args, ("ASL", "C2PL", "CHAIN", "K2"))
        print(report_experiment3(run_experiment3(config)))
        return 0
    if args.command == "exp4":
        config = _experiment_config(args, EXP4_SCHEDULERS)
        result = run_experiment4(config, sigmas=_floats(args.sigmas))
        print(report_experiment4(result))
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
