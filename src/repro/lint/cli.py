"""Command-line entry point: ``repro-lint`` / ``python -m repro.lint``.

Exit codes: 0 clean, 1 violations found, 2 usage error (e.g. a path that
does not exist, or an unknown rule id).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.engine import lint_paths, render_json, render_text
from repro.lint.model import all_rules
from repro.lint.sarif import render_sarif


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Project-specific static analysis for the WTPG core "
                    "(7 rules numbered RL001-RL012; docs/lint.md lists "
                    "them and the retired numbers).")
    parser.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)")
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit a machine-readable JSON report instead of text")
    parser.add_argument(
        "--sarif", nargs="?", const="-", default=None, metavar="FILE",
        help="emit a SARIF 2.1.0 report to FILE (or stdout when no "
             "FILE is given) instead of text")
    parser.add_argument(
        "--select", metavar="RULES", default=None,
        help="comma-separated rule ids to run (e.g. RL009,RL012); "
             "default: every registered rule")
    parser.add_argument(
        "--ignore", metavar="RULES", default=None,
        help="comma-separated rule ids to skip")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    parser.add_argument(
        "--explain", metavar="RULE", default=None,
        help="print one rule's catalogue entry, then exit")
    return parser


def _parse_rule_list(raw: str, known: Sequence[str],
                     flag: str) -> Optional[List[str]]:
    """A comma-separated rule-id list, or None (with stderr) on junk."""
    ids = [part.strip().upper() for part in raw.split(",") if part.strip()]
    unknown = sorted(set(ids) - set(known))
    if unknown:
        print(f"repro-lint: {flag} names unknown rule"
              f"{'s' if len(unknown) != 1 else ''}: {', '.join(unknown)} "
              f"(known: {', '.join(known)})", file=sys.stderr)
        return None
    if not ids:
        print(f"repro-lint: {flag} needs at least one rule id",
              file=sys.stderr)
        return None
    return ids


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    rules = all_rules()

    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.summary}")
        return 0

    if args.explain is not None:
        wanted = args.explain.strip().upper()
        for rule in rules:
            if rule.rule_id == wanted:
                print(f"{rule.rule_id}  {rule.summary}")
                return 0
        print(f"repro-lint: --explain names an unknown rule: {wanted} "
              f"(known: {', '.join(r.rule_id for r in rules)})",
              file=sys.stderr)
        return 2

    known = [rule.rule_id for rule in rules]
    if args.select is not None:
        selected = _parse_rule_list(args.select, known, "--select")
        if selected is None:
            return 2
        rules = [rule for rule in rules if rule.rule_id in selected]
    if args.ignore is not None:
        ignored = _parse_rule_list(args.ignore, known, "--ignore")
        if ignored is None:
            return 2
        rules = [rule for rule in rules if rule.rule_id not in ignored]

    if args.sarif not in (None, "-") and Path(args.sarif).suffix not in (
            ".sarif", ".json"):
        # Guards against `--sarif <path-to-lint>` eating a positional
        # path and overwriting a source file with the report.
        print(f"repro-lint: --sarif target must end .sarif or .json "
              f"(got {args.sarif!r})", file=sys.stderr)
        return 2

    paths: List[Path] = []
    for raw in args.paths:
        path = Path(raw)
        if not path.exists():
            print(f"repro-lint: path does not exist: {raw}", file=sys.stderr)
            return 2
        paths.append(path)

    violations, runner = lint_paths(paths, rules)

    if args.sarif is not None:
        report = render_sarif(violations, rules)
        if args.sarif == "-":
            print(report)
        else:
            Path(args.sarif).write_text(report + "\n", encoding="utf-8")
    elif args.as_json:
        print(render_json(violations, runner.files_checked, rules))
    else:
        print(render_text(violations, runner.files_checked))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
