"""Structural SARIF 2.1.0 validation (no jsonschema in the container:
the assertions pin the exact subset GitHub code scanning consumes)."""

import json
import subprocess
import sys
from pathlib import Path

import repro.lint.engine  # noqa: F401  (registers the rule catalogue)
from repro.lint.model import Violation, all_rules
from repro.lint.sarif import (FINGERPRINT_KEY, SARIF_SCHEMA, SARIF_VERSION,
                              TOOL_NAME, TOOL_VERSION, artifact_uri,
                              fingerprint, fingerprints_for, render_sarif)


def sample_violations(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("t.register()\nt.request()\n", encoding="utf-8")
    return [
        Violation("RL006", str(source), 1, 0, "leak one"),
        Violation("RL007", str(source), 2, 4, "stale read"),
    ]


def document_for(tmp_path):
    text = render_sarif(sample_violations(tmp_path), all_rules(),
                        root=tmp_path)
    return json.loads(text)


def test_top_level_shape(tmp_path):
    doc = document_for(tmp_path)
    assert doc["$schema"] == SARIF_SCHEMA
    assert doc["version"] == SARIF_VERSION == "2.1.0"
    assert len(doc["runs"]) == 1


def test_driver_carries_the_full_rule_catalogue(tmp_path):
    driver = document_for(tmp_path)["runs"][0]["tool"]["driver"]
    assert driver["name"] == TOOL_NAME
    assert driver["version"] == TOOL_VERSION
    ids = [rule["id"] for rule in driver["rules"]]
    assert ids == [f"RL{i:03d}" for i in range(1, 17)
                   if i not in (2, 8, 10, 11, 15)]
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]


def test_results_reference_rules_by_index(tmp_path):
    doc = document_for(tmp_path)
    driver = doc["runs"][0]["tool"]["driver"]
    for result in doc["runs"][0]["results"]:
        index = result["ruleIndex"]
        assert driver["rules"][index]["id"] == result["ruleId"]


def test_result_locations_are_one_based_and_repo_relative(tmp_path):
    results = document_for(tmp_path)["runs"][0]["results"]
    assert len(results) == 2
    first = results[0]
    assert first["level"] == "error"
    assert first["message"]["text"] == "leak one"
    location = first["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "mod.py"
    assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
    assert location["region"]["startLine"] == 1
    # ast columns are 0-based, SARIF's are 1-based.
    assert location["region"]["startColumn"] == 1
    assert results[1]["locations"][0]["physicalLocation"]["region"][
        "startColumn"] == 5


def test_results_carry_baseline_fingerprints(tmp_path):
    results = document_for(tmp_path)["runs"][0]["results"]
    prints = [r["partialFingerprints"][FINGERPRINT_KEY] for r in results]
    assert all(len(p) == 64 for p in prints)  # sha256 hex
    assert len(set(prints)) == 2


def violation_in(path, line, rule_id="RL006", message="leak"):
    return Violation(rule_id, str(path), line, 4, message)


def write_source(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_fingerprint_is_stable_and_input_sensitive():
    base = fingerprint("RL006", "src/a.py", "x.register()", 0)
    assert base == fingerprint("RL006", "src/a.py", "x.register()", 0)
    assert base != fingerprint("RL007", "src/a.py", "x.register()", 0)
    assert base != fingerprint("RL006", "src/b.py", "x.register()", 0)
    assert base != fingerprint("RL006", "src/a.py", "x.register()", 1)


def test_fingerprints_survive_line_drift(tmp_path):
    """Inserting lines above a finding must not change its fingerprint —
    the hash covers the line *text*, never the number."""
    source = write_source(tmp_path, "mod.py",
                          ["def f():", "    t.register()"])
    before = fingerprints_for([violation_in(source, 2)], root=tmp_path)

    write_source(tmp_path, "mod.py",
                 ["# a new comment", "", "def f():", "    t.register()"])
    after = fingerprints_for([violation_in(source, 4)], root=tmp_path)
    assert before == after


def test_fingerprints_change_when_the_line_itself_changes(tmp_path):
    source = write_source(tmp_path, "mod.py", ["t.register()"])
    before = fingerprints_for([violation_in(source, 1)], root=tmp_path)
    write_source(tmp_path, "mod.py", ["t.register(txn)"])
    after = fingerprints_for([violation_in(source, 1)], root=tmp_path)
    assert before != after


def test_repeated_identical_lines_get_distinct_occurrence_indices(tmp_path):
    source = write_source(tmp_path, "mod.py",
                          ["t.register()", "t.register()"])
    prints = fingerprints_for(
        [violation_in(source, 1), violation_in(source, 2)], root=tmp_path)
    assert len(set(prints)) == 2


def test_artifact_uri_falls_back_outside_the_root(tmp_path):
    inside = tmp_path / "pkg" / "mod.py"
    assert artifact_uri(str(inside), root=tmp_path) == "pkg/mod.py"
    outside = Path("/somewhere/else/mod.py")
    assert artifact_uri(str(outside), root=tmp_path) == outside.as_posix()


def test_clean_run_renders_an_empty_results_array(tmp_path):
    doc = json.loads(render_sarif([], all_rules(), root=tmp_path))
    assert doc["runs"][0]["results"] == []


def test_cli_sarif_flag_end_to_end(tmp_path):
    """`python -m repro.lint --sarif FILE` writes a parseable document
    whose driver matches the registry — the exact artifact CI uploads."""
    out = tmp_path / "report.sarif"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--sarif", str(out),
         "src/repro/lint/sarif.py"],
        capture_output=True, text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-lint"


def test_cli_sarif_refuses_non_report_targets(tmp_path):
    """Regression for the flag-parsing footgun: `--sarif src/x.py` would
    silently overwrite the *source file* with the report."""
    victim = tmp_path / "victim.py"
    victim.write_text("x = 1\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--sarif", str(victim)],
        capture_output=True, text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 2
    assert victim.read_text(encoding="utf-8") == "x = 1\n"
