"""SARIF 2.1.0 output for repro-lint.

One run, one driver, one result per violation.  The emitted document is
the minimal valid subset GitHub code scanning consumes: driver metadata
with the rule catalogue (``ruleIndex`` back-references), one
``physicalLocation`` per result with a repo-relative artifact URI, and a
``partialFingerprints`` entry so alert identity survives line drift.

The fingerprint hashes ``rule id + repo-relative path + stripped source
line text + occurrence index`` — deliberately *not* the line number, so
unrelated edits that shift a finding up or down keep its identity, while
any change to the offending line itself surfaces as a new alert.  The
occurrence index disambiguates repeated identical lines in one file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.model import Rule, Violation

SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"
TOOL_NAME = "repro-lint"
TOOL_VERSION = "1.0.0"

#: partialFingerprints key; versioned so the hashing scheme can evolve.
FINGERPRINT_KEY = "reproLint/v1"


def artifact_uri(file: str, root: Optional[Path] = None) -> str:
    """Repo-relative posix URI for a violation's file, if possible."""
    path = Path(file)
    base = (root or Path.cwd()).resolve()
    try:
        return path.resolve().relative_to(base).as_posix()
    except ValueError:
        return path.as_posix()


def _line_text(violation: Violation,
               sources: Dict[str, List[str]]) -> str:
    """The stripped source line a violation points at ('' if unknown)."""
    if violation.file not in sources:
        try:
            text = Path(violation.file).read_text(encoding="utf-8")
            sources[violation.file] = text.splitlines()
        except OSError:
            sources[violation.file] = []
    lines = sources[violation.file]
    if 1 <= violation.line <= len(lines):
        return lines[violation.line - 1].strip()
    return ""


def fingerprint(rule_id: str, rel_path: str, line_text: str,
                occurrence: int) -> str:
    payload = f"{rule_id}\x1f{rel_path}\x1f{line_text}\x1f{occurrence}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprints_for(violations: Sequence[Violation],
                     root: Optional[Path] = None) -> List[str]:
    """One fingerprint per violation, in input order."""
    sources: Dict[str, List[str]] = {}
    counts: Dict[Tuple[str, str, str], int] = {}
    out: List[str] = []
    for violation in violations:
        rel = artifact_uri(violation.file, root)
        text = _line_text(violation, sources)
        key = (violation.rule_id, rel, text)
        occurrence = counts.get(key, 0)
        counts[key] = occurrence + 1
        out.append(fingerprint(violation.rule_id, rel, text, occurrence))
    return out


def render_sarif(violations: Sequence[Violation], rules: Sequence[Rule],
                 root: Optional[Path] = None) -> str:
    """The SARIF 2.1.0 document for one lint run, as a JSON string."""
    rule_index: Dict[str, int] = {rule.rule_id: i
                                  for i, rule in enumerate(rules)}
    fingerprints = fingerprints_for(violations, root)
    results: List[Dict[str, object]] = []
    for violation, fingerprint in zip(violations, fingerprints):
        result: Dict[str, object] = {
            "ruleId": violation.rule_id,
            "level": "error",
            "message": {"text": violation.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": artifact_uri(violation.file, root),
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {
                        "startLine": violation.line,
                        # SARIF columns are 1-based; ast's are 0-based.
                        "startColumn": violation.col + 1,
                    },
                },
            }],
            "partialFingerprints": {FINGERPRINT_KEY: fingerprint},
        }
        if violation.rule_id in rule_index:
            result["ruleIndex"] = rule_index[violation.rule_id]
        results.append(result)
    document = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": TOOL_NAME,
                    "version": TOOL_VERSION,
                    "rules": [{
                        "id": rule.rule_id,
                        "shortDescription": {"text": rule.summary},
                    } for rule in rules],
                },
            },
            "results": results,
        }],
    }
    return json.dumps(document, indent=2, sort_keys=True)
