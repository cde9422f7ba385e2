#!/usr/bin/env python
"""Time repro-lint rule by rule against the shared parse + project build.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/lint_rule_times.py [--repeats 9] [PATH ...]

Each repeat parses every file, builds the one ``Project`` (call graph,
function summaries, one CFG per function), runs each rule alone over
every file it applies to, and then times one complete ``LintRunner``
run.  Medians are printed; each rule's share is relative to the
complete run.  The rule times include each rule's ``applies_to`` calls
but not suppression handling, so shared + rules can exceed the full
run.  Garbage is collected before the shared phase and before the rule
timings, so no phase pays for another's (or the previous repeat's)
allocations.
"""

from __future__ import annotations

import argparse
import ast
import gc
import statistics
import time
from pathlib import Path
from typing import Dict, List

from repro.lint.engine import LintRunner, read_entries
from repro.lint.model import FileContext, ProjectRule, all_rules
from repro.lint.project import Project


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src"])
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args()
    entries = read_entries([Path(p) for p in args.paths])
    rules = all_rules()
    shared: List[float] = []
    full: List[float] = []
    per_rule: Dict[str, List[float]] = {rule.rule_id: [] for rule in rules}
    for _ in range(args.repeats):
        gc.collect()
        start = time.perf_counter()
        contexts = [FileContext(display, logical, source, ast.parse(source))
                    for display, logical, source in entries]
        project = Project(contexts)
        shared.append(time.perf_counter() - start)
        gc.collect()
        for rule in rules:
            start = time.perf_counter()
            for ctx in contexts:
                if rule.applies_to(ctx):
                    list(rule.check_project(ctx, project)
                         if isinstance(rule, ProjectRule)
                         else rule.check(ctx))
            per_rule[rule.rule_id].append(time.perf_counter() - start)
        start = time.perf_counter()
        LintRunner().check_sources(entries)
        full.append(time.perf_counter() - start)
        # Free this repeat's parse and project before the next shared
        # phase starts its timer.
        del contexts, project
    full_s = statistics.median(full)
    print(f"{len(entries)} files, {args.repeats} repeats (medians)")
    print(f"parse + project build: {statistics.median(shared):.3f} s")
    print(f"full run:              {full_s:.3f} s")
    for rule_id, times in per_rule.items():
        rule_s = statistics.median(times)
        print(f"{rule_id}: {1000 * rule_s:7.1f} ms  "
              f"{100 * rule_s / full_s:5.1f}% of the full run")


if __name__ == "__main__":
    main()
