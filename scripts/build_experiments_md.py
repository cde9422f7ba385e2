#!/usr/bin/env python
"""Assemble EXPERIMENTS.md from the full-fidelity reports in results/.

Parses the key readings out of each experiment's text report (written by
scripts/run_paper_experiments.py), compares them against the paper's
stated values, and emits the paper-vs-measured record.  Re-runnable:
regenerate the reports, re-run this.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
OUT = ROOT / "EXPERIMENTS.md"

TPS_LINE = re.compile(
    r"^\s+(\S+)\s+TPS@RT70 = ([0-9.]+)(?:, useful utilization (\d+)%)?",
    re.MULTILINE)
SATURATION = re.compile(r"λ_S = ([0-9.]+) TPS")
RATIO_LINE = re.compile(r"^\s+(\S+) / (\S+) = ([0-9.]+)x", re.MULTILINE)
LOSS_LINE = re.compile(
    r"^\s+(\S+) loss at sigma=([0-9.]+): ([-0-9.]+)%", re.MULTILINE)


def read(name: str) -> str:
    path = RESULTS / f"{name}.txt"
    if not path.exists():
        raise SystemExit(f"missing {path}; run "
                         "scripts/run_paper_experiments.py first")
    return path.read_text()


def tps_readings(text: str):
    return {m.group(1): (float(m.group(2)),
                         int(m.group(3)) if m.group(3) else None)
            for m in TPS_LINE.finditer(text)}


def figure8_table(text: str):
    """NumHots -> {scheduler: tps} from the exp2 report table."""
    lines = text.splitlines()
    header_index = next(i for i, line in enumerate(lines)
                        if line.startswith("NumHots"))
    names = lines[header_index].split()[1:]
    table = {}
    for line in lines[header_index + 2:]:
        parts = line.split()
        if len(parts) != len(names) + 1:
            break
        table[int(parts[0])] = {name: float(value)
                                for name, value in zip(names, parts[1:])}
    return table


def figure10_table(text: str):
    lines = text.splitlines()
    header_index = next(i for i, line in enumerate(lines)
                        if line.startswith("sigma"))
    names = lines[header_index].split()[1:]
    table = {}
    for line in lines[header_index + 2:]:
        parts = line.split()
        if len(parts) != len(names) + 1:
            break
        table[float(parts[0])] = {name: float(value)
                                  for name, value in zip(names, parts[1:])}
    return table


def check(ok: bool) -> str:
    return "✅" if ok else "⚠️"


def build() -> str:
    exp1 = read("exp1")
    exp2 = read("exp2")
    exp3 = read("exp3")
    exp4 = read("exp4")

    r1 = tps_readings(exp1)
    sat = float(SATURATION.search(exp1).group(1))
    fig8 = figure8_table(exp2)
    r3 = tps_readings(exp3)
    ratios3 = {(m.group(1), m.group(2)): float(m.group(3))
               for m in RATIO_LINE.finditer(exp3)}
    fig10 = figure10_table(exp4)
    losses = {m.group(1): float(m.group(3)) / 100
              for m in LOSS_LINE.finditer(exp4)}

    good_over_c2pl = min(r1[n][0] for n in ("ASL", "CHAIN", "K2")) / \
        r1["C2PL"][0]
    wtpg_util = [r1[n][1] for n in ("CHAIN", "K2") if r1[n][1] is not None]

    hots = sorted(fig8)
    k2_best_everywhere = all(
        fig8[h]["K2"] == max(fig8[h].values()) for h in hots)
    asl_worst_small = all(
        fig8[h]["ASL"] == min(fig8[h].values()) for h in hots[:3])
    chain_hurt_small = fig8[hots[0]]["CHAIN"] < fig8[hots[0]]["C2PL"]
    wtpg_beat_c2pl_large = all(
        fig8[h]["CHAIN"] > fig8[h]["C2PL"]
        and fig8[h]["K2"] > fig8[h]["C2PL"] for h in hots[2:])
    c2pl_at_8 = fig8[8]["C2PL"]
    c2pl_drop = 1 - r3["C2PL"][0] / c2pl_at_8

    sigmas = sorted(fig10)
    max_sigma = sigmas[-1]
    hybrid_gap = fig10[0.0].get("CHAIN-C2PL", 0) > fig10[0.0].get(
        "K2-C2PL", 0)

    rows = [
        ("Exp 1", "ASL/CHAIN/K2 over C2PL at RT=70 s", "1.9–2.0×",
         f"{good_over_c2pl:.2f}×", good_over_c2pl > 1.5),
        ("Exp 1", "NODC saturation rate λ_S", "1.08 TPS",
         f"{sat:.2f} TPS", abs(sat - 1.08) < 0.1),
        ("Exp 1", "useful utilization of CHAIN/K2", "≈64 %",
         "/".join(f"{u}%" for u in wtpg_util),
         all(abs(u - 64) <= 10 for u in wtpg_util)),
        ("Exp 2", "K2 best at every NumHots", "yes",
         "yes" if k2_best_everywhere else "no", k2_best_everywhere),
        ("Exp 2", "ASL worst at small hot sets", "yes",
         "yes" if asl_worst_small else "no", asl_worst_small),
        ("Exp 2", "CHAIN below C2PL at NumHots=4", "yes",
         "yes" if chain_hurt_small else "no", chain_hurt_small),
        ("Exp 2", "CHAIN & K2 above C2PL at NumHots=16/32", "yes",
         "yes" if wtpg_beat_c2pl_large else "no", wtpg_beat_c2pl_large),
        ("Exp 2", "C2PL at NumHots=8", "0.7 TPS",
         f"{c2pl_at_8:.2f} TPS", 0.3 < c2pl_at_8 < 1.0),
        ("Exp 3", "C2PL at RT=70 s", "0.5 TPS",
         f"{r3['C2PL'][0]:.2f} TPS", 0.15 < r3["C2PL"][0] < 0.7),
        ("Exp 3", "C2PL drop vs Exp 2 @ NumHots=8", "−30 %",
         f"{-c2pl_drop:.0%}", 0.1 < c2pl_drop < 0.6),
        ("Exp 3", "CHAIN/K2 over ASL/C2PL", "1.2–1.8×",
         "–".join(f"{v:.2f}" for v in sorted(ratios3.values())[:1]) + "–" +
         f"{sorted(ratios3.values())[-1]:.2f}×",
         min(ratios3.values()) > 1.0),
        ("Exp 4", "CHAIN loss at σ=1", "4.6 %",
         f"{losses.get('CHAIN', float('nan')):.1%}",
         losses.get("CHAIN", 1) < 0.25),
        ("Exp 4", "K2 loss at σ=1", "13.8 %",
         f"{losses.get('K2', float('nan')):.1%}",
         losses.get("K2", 1) < 0.35),
        ("Exp 4", "CHAIN-C2PL above K2-C2PL", "0.58 vs 0.36 TPS",
         f"{fig10[0.0].get('CHAIN-C2PL', float('nan')):.2f} vs "
         f"{fig10[0.0].get('K2-C2PL', float('nan')):.2f} TPS", hybrid_gap),
    ]

    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Full-fidelity reproduction of every figure in the paper's",
        "evaluation: 2,000,000-clock runs (the paper's horizon), 8 data",
        "nodes, MPL = ∞, exponential arrivals, seed 1.  Regenerate with",
        "`python scripts/run_paper_experiments.py` followed by",
        "`python scripts/build_experiments_md.py` (≈1 h single-process;",
        "`--jobs N`, N ≥ 1, fans each experiment grid over N worker processes",
        "through `run_points` with bit-identical results — see",
        "docs/parallel.md.  Wall-clock can scale at best with `min(N, cores)`;",
        "no pooled speedup is committed, because the only one ever measured",
        "came from a single-core machine).  The script ends each report with",
        "a `code fingerprint:` line naming the simulator source that wrote it.",
        "",
        "Absolute numbers are not expected to match a 1990 simulator whose",
        "Table 1 control costs are partially illegible (see DESIGN.md); the",
        "*shape* — who wins, by what factor, where behaviour flips — is the",
        "reproduction target.  ✅ = shape reproduced, ⚠️ = deviation",
        "(discussed below the table).",
        "",
        "| Exp | Paper claim | Paper value | Measured | Verdict |",
        "|---|---|---|---|---|",
    ]
    for exp, claim, paper, measured, ok in rows:
        lines.append(f"| {exp} | {claim} | {paper} | {measured} "
                     f"| {check(ok)} |")

    lines += [
        "",
        "## Notes on deviations",
        "",
        "* **C2PL separation is wider than the paper's.**  We measure the",
        "  good schedulers at ~2.2–2.4× C2PL in Experiment 1 (paper:",
        "  1.9–2.0×) and C2PL lower in absolute TPS.  Our retry-polling",
        "  resubmission (500 ms fixed delay, per the paper's description)",
        "  plus deliberately overestimated control costs penalise C2PL's",
        "  enormous retry volume; the paper acknowledges the same bias",
        "  direction (\"this setting makes us overestimate the overhead of",
        "  control\").",
        "* **The K-conflict counting granularity is a calibrated choice.**",
        "  The paper's wording (\"each lock-declaration may conflict with",
        "  K lock-declarations at most\") is ambiguous on Pattern1, where a",
        "  rival's read-then-upgrade pair contributes *two* conflicting",
        "  declarations but one transaction.  Counting declarations makes",
        "  the K = 2 admission ASL-like (strong on Pattern1) and *inverts*",
        "  the paper's Experiment 4 hybrid ordering; counting distinct",
        "  transactions — our default — reproduces it (CHAIN-C2PL well",
        "  above K2-C2PL, the latter near plain C2PL).  Both modes are",
        "  implemented (`k_count_mode`) and ablated in",
        "  `benchmarks/bench_ablation_kcount.py`.",
        "* **E-minimality livelock fix.**  Property testing found that",
        "  comparing E(q) against rival declarations the rival cannot yet",
        "  issue (later steps) can livelock a trio of transactions under",
        "  the rule as literally stated; we compare against each rival's",
        "  earliest pending conflicting declaration (DESIGN.md decision 7).",
        "",
        "## Full reports",
        "",
    ]
    for name, title in (("exp1", "Experiment 1 (Figures 6 and 7)"),
                        ("exp2", "Experiment 2 (Figure 8)"),
                        ("exp3", "Experiment 3 (Figure 9)"),
                        ("exp4", "Experiment 4 (Figure 10)")):
        lines += [f"### {title}", "", "```"]
        lines += read(name).rstrip().splitlines()
        lines += ["```", ""]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    OUT.write_text(build())
    print(f"wrote {OUT}")
