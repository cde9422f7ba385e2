"""File collection, rule dispatch and reporting for repro-lint.

Since the interprocedural rules (RL009, RL012) arrived, a lint run has
two phases: every file of the invocation is parsed first and assembled
into one :class:`repro.lint.project.Project` (call graph + function
summaries), then the rules run file by file — plain
:class:`Rule` subclasses see only their :class:`FileContext`, while
:class:`ProjectRule` subclasses also receive the project.  Single-file
entry points (``check_source``) build a one-file project, so fixture
tests exercise the whole-program rules without touching disk.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import repro.lint.flow_rules  # noqa: F401  (imported for rule registration)
import repro.lint.rules  # noqa: F401  (imported for rule registration)
from repro.lint.model import (FileContext, ProjectRule, Rule, Violation,
                              all_rules)
from repro.lint.project import Project
from repro.lint.suppressions import apply_suppressions, parse_suppressions

#: Rule id used for meta problems: unparseable files and malformed or
#: unjustified suppression directives.
META_RULE = "RL000"

#: Directories never linted even when nested under a requested path.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "build", "dist"})

#: One file handed to the engine: ``(display path, logical path, source)``.
SourceEntry = Tuple[str, str, str]


def logical_path_of(path: Path) -> str:
    """The package-relative posix path (``repro/core/wtpg.py``) of a file.

    Falls back to the file's own posix path when it does not live inside
    a ``repro`` package directory (fixtures pass an explicit override
    instead of relying on this).
    """
    parts = path.resolve().parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return path.as_posix()


def iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    """All ``.py`` files under the given files/directories, sorted."""
    seen: Dict[Path, None] = {}
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            seen.setdefault(path, None)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    seen.setdefault(candidate, None)
    return list(seen)


def read_entries(paths: Sequence[Path]) -> List[SourceEntry]:
    """Collect ``(display, logical, source)`` entries for a path set."""
    return [(str(path), logical_path_of(path),
             path.read_text(encoding="utf-8"))
            for path in iter_python_files(paths)]


def _parse_entry(
        entry: SourceEntry) -> Tuple[Optional[FileContext], List[Violation]]:
    display, logical, source = entry
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        return None, [Violation(META_RULE, display, exc.lineno or 1,
                                (exc.offset or 1) - 1,
                                f"file does not parse: {exc.msg}")]
    return FileContext(display=display, logical=logical, source=source,
                       tree=tree), []


class LintRunner:
    """Run a set of rules over files, honouring suppression directives."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        self.rules: List[Rule] = list(rules) if rules is not None else all_rules()
        self.files_checked = 0

    def check_source(self, source: str, display: str,
                     logical: str) -> List[Violation]:
        """Lint one in-memory source blob (the unit tests' entry point)."""
        return self.check_sources([(display, logical, source)])

    def check_sources(self, entries: Sequence[SourceEntry]) -> List[Violation]:
        """Lint a batch of in-memory sources as one project.

        Multi-entry calls are how the interprocedural fixtures model
        cross-module facts: every parseable entry lands in the same
        call graph, so a fixture impersonating ``repro/machine/x.py``
        can call into one impersonating ``repro/core/y.py``.
        """
        contexts: List[Optional[FileContext]] = []
        parse_failures: List[List[Violation]] = []
        for entry in entries:
            ctx, errors = _parse_entry(entry)
            contexts.append(ctx)
            parse_failures.append(errors)
        project = Project([ctx for ctx in contexts if ctx is not None])
        self.files_checked += len(entries)
        violations: List[Violation] = []
        for ctx, errors in zip(contexts, parse_failures):
            if ctx is None:
                violations.extend(errors)
            else:
                violations.extend(self.check_context(ctx, project))
        return violations

    def check_context(self, ctx: FileContext,
                      project: Project) -> List[Violation]:
        """Rules + suppressions for one already-parsed file."""
        violations: List[Violation] = []
        for rule in self.rules:
            if not rule.applies_to(ctx):
                continue
            if isinstance(rule, ProjectRule):
                violations.extend(rule.check_project(ctx, project))
            else:
                violations.extend(rule.check(ctx))
        table = parse_suppressions(ctx.source)
        violations, _used = apply_suppressions(violations, table)
        for directive in table.values():
            if not directive.justified:
                violations.append(Violation(
                    META_RULE, ctx.display, directive.line, 0,
                    "suppression without a justification: write "
                    "'# repro-lint: disable=RLxxx -- <why the contract "
                    "does not apply here>'"))
        violations.sort(key=lambda v: (v.file, v.line, v.col, v.rule_id))
        return violations

    def check_file(self, path: Path,
                   logical: Optional[str] = None) -> List[Violation]:
        source = path.read_text(encoding="utf-8")
        return self.check_sources([
            (str(path), logical or logical_path_of(path), source)])

    def check_paths(self, paths: Sequence[Path]) -> List[Violation]:
        return self.check_sources(read_entries(paths))


def lint_paths(paths: Sequence[Path],
               rules: Optional[Sequence[Rule]] = None,
               ) -> Tuple[List[Violation], LintRunner]:
    """Convenience wrapper: lint paths, return (violations, runner)."""
    runner = LintRunner(rules)
    return runner.check_sources(read_entries(paths)), runner


def render_text(violations: Sequence[Violation], files_checked: int) -> str:
    lines = [violation.render() for violation in violations]
    noun = "file" if files_checked == 1 else "files"
    if violations:
        count = len(violations)
        lines.append(f"repro-lint: {count} violation"
                     f"{'s' if count != 1 else ''} "
                     f"in {files_checked} {noun}")
    else:
        lines.append(f"repro-lint: clean ({files_checked} {noun})")
    return "\n".join(lines)


def render_json(violations: Sequence[Violation], files_checked: int,
                rules: Sequence[Rule]) -> str:
    payload = {
        "tool": "repro-lint",
        "version": 1,
        "files_checked": files_checked,
        "rules": [rule.rule_id for rule in rules],
        "violations": [violation.as_dict() for violation in violations],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
