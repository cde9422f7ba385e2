"""Runner plumbing: registry, JSON schema, CLI exit codes, repo cleanliness."""

import json
from pathlib import Path

import pytest

from repro.lint import LintRunner, all_rules
from repro.lint.cli import main
from repro.lint.engine import logical_path_of, render_json

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_SOURCE = (
    "def run(task):\n"
    "    try:\n"
    "        task()\n"
    "    except:\n"
    "        pass\n"
)


def test_registry_holds_the_seven_documented_rules():
    # RL002 and RL010 (WTPG generation bumps) were retired once the WTPG
    # bumped before it writes: RL003 checks that syntactically.  RL008
    # and RL011 (stream escape) were retired once RandomStreams stopped
    # handing out generators (RL001 bans reaching for one), RL015
    # (WTPG node lifecycle) for its runtime twin, WTPGError, and the
    # checkpoint-lifecycle rule with the checkpointed sweeps it checked.
    # The typestate rules went for runtime twins: RL006 (lock lifecycle)
    # for invariant 1, RL013 (BAT lifecycle) for LifecycleError, and
    # RL014 (Event lifecycle) for RL003's Event write barrier.
    assert [rule.rule_id for rule in all_rules()] == [
        "RL001", "RL003", "RL004", "RL005", "RL007", "RL009", "RL012"]
    assert all(rule.summary for rule in all_rules())


def test_syntax_error_is_reported_as_rl000():
    violations = LintRunner().check_source(
        "def broken(:\n", display="<fixture>", logical="repro/x.py")
    assert [v.rule_id for v in violations] == ["RL000"]
    assert "does not parse" in violations[0].message


def test_logical_path_of_maps_into_the_package():
    path = REPO_ROOT / "src" / "repro" / "core" / "wtpg.py"
    assert logical_path_of(path) == "repro/core/wtpg.py"


def test_json_report_schema():
    runner = LintRunner()
    violations = runner.check_source(BAD_SOURCE, display="bad.py",
                                     logical="repro/machine/bad.py")
    payload = json.loads(render_json(violations, 1, runner.rules))
    assert payload["tool"] == "repro-lint"
    assert payload["version"] == 1
    assert payload["files_checked"] == 1
    assert payload["rules"] == ["RL001", "RL003", "RL004",
                                "RL005", "RL007", "RL009", "RL012"]
    assert len(payload["violations"]) == 1
    entry = payload["violations"][0]
    assert set(entry) == {"rule", "file", "line", "col", "message"}
    assert entry["rule"] == "RL005"
    assert entry["file"] == "bad.py"
    assert entry["line"] == 4


def test_repo_source_tree_is_clean():
    """The acceptance criterion: repro-lint src/ finds nothing."""
    violations, runner = [], LintRunner()
    violations = runner.check_paths([REPO_ROOT / "src"])
    assert violations == [], "\n".join(v.render() for v in violations)
    assert runner.files_checked > 50


# -- CLI ----------------------------------------------------------------------


def test_cli_exit_zero_and_text_report_on_clean_tree(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main([str(clean)]) == 0
    out = capsys.readouterr().out
    assert "repro-lint: clean (1 file)" in out


def test_cli_exit_one_on_violations(tmp_path, capsys):
    bad = tmp_path / "repro" / "machine"
    bad.mkdir(parents=True)
    bad_file = bad / "bad.py"
    bad_file.write_text(BAD_SOURCE)
    assert main([str(bad_file)]) == 1
    out = capsys.readouterr().out
    assert "RL005" in out


def test_cli_json_flag(tmp_path, capsys):
    bad = tmp_path / "repro" / "machine"
    bad.mkdir(parents=True)
    (bad / "bad.py").write_text(BAD_SOURCE)
    assert main(["--json", str(bad / "bad.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"] == "repro-lint"
    assert [v["rule"] for v in payload["violations"]] == ["RL005"]


def test_cli_exit_two_on_missing_path(capsys):
    assert main(["definitely-not-a-real-path"]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RL001", "RL003", "RL004", "RL005",
                    "RL007", "RL009", "RL012"):
        assert rule_id in out
    for retired in ("RL002", "RL006", "RL008", "RL010", "RL011",
                    "RL013", "RL014", "RL015"):
        assert retired not in out
    assert len(out.splitlines()) == 7


def test_cli_skips_pycache_directories(tmp_path, capsys):
    tree = tmp_path / "pkg"
    cache = tree / "__pycache__"
    cache.mkdir(parents=True)
    (tree / "ok.py").write_text("x = 1\n")
    (cache / "bad.py").write_text(BAD_SOURCE)
    assert main([str(tree)]) == 0


def test_cli_select_runs_only_named_rules(tmp_path, capsys):
    bad = tmp_path / "repro" / "machine"
    bad.mkdir(parents=True)
    (bad / "bad.py").write_text(BAD_SOURCE)
    assert main(["--select", "RL001", str(bad / "bad.py")]) == 0
    capsys.readouterr()
    assert main(["--select", "RL005,RL009", str(bad / "bad.py")]) == 1
    assert "RL005" in capsys.readouterr().out


def test_cli_ignore_skips_named_rules(tmp_path, capsys):
    bad = tmp_path / "repro" / "machine"
    bad.mkdir(parents=True)
    (bad / "bad.py").write_text(BAD_SOURCE)
    assert main(["--ignore", "RL005", str(bad / "bad.py")]) == 0


def test_cli_rule_filters_reject_unknown_ids(capsys):
    assert main(["--select", "RL999", "."]) == 2
    assert "unknown rule" in capsys.readouterr().err
    assert main(["--ignore", "nonsense", "."]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_rl002_has_teeth_against_the_real_wtpg():
    """Strip the generation bumps from the real WTPG and RL003 fires at
    every write of the six mutators that write the watched containers.

    This proves the rule analyses the production module (not a toy
    grammar): removing invariant 7's write barrier is caught statically.
    """
    path = REPO_ROOT / "src" / "repro" / "core" / "wtpg.py"
    source = path.read_text(encoding="utf-8")
    stripped = source.replace("self._generation += 1", "pass").replace(
        "self._structure_gen += 1", "pass")
    assert stripped != source, "expected generation bumps in wtpg.py"
    violations = LintRunner().check_source(
        stripped, display=str(path), logical="repro/core/wtpg.py")
    rl002 = [v for v in violations if v.rule_id == "RL003"]
    assert len(rl002) == 24, "RL003 must catch stripped generation bumps"
    assert {v.message.split()[0] for v in rl002} == {
        "WTPG.add_transaction", "WTPG.remove_transaction",
        "WTPG.set_source_weight", "WTPG.decrement_source",
        "WTPG.ensure_pair", "WTPG.resolve"}


def test_rl007_has_teeth_against_the_real_wtpg():
    """Re-reversing the critical-path guard makes RL007 fire.

    Regression pin for the wtpg fix this rule surfaced:
    ``critical_path_length`` used to read ``self._cp_dist`` *before*
    comparing ``self._cp_gen`` — harmless only by accident of how the
    value was used afterwards, and exactly the stale-read shape
    invariant 7 forbids.  Reintroducing the old shape into the real
    module source must be caught statically.
    """
    path = REPO_ROOT / "src" / "repro" / "core" / "wtpg.py"
    source = path.read_text(encoding="utf-8")
    fixed = ("        if self._cp_gen == self._structure_gen "
             "and self._cp_dist is not None:\n"
             "            dist = self._cp_dist\n")
    reverted = ("        dist = self._cp_dist\n"
                "        if dist is not None "
                "and self._cp_gen == self._structure_gen:\n")
    assert fixed in source, "expected the guarded-read form in wtpg.py"
    violations = LintRunner().check_source(
        source.replace(fixed, reverted), display=str(path),
        logical="repro/core/wtpg.py")
    rl007 = [v for v in violations if v.rule_id == "RL007"]
    assert rl007, "RL007 must catch the read-before-guard shape"
    assert "_cp_dist" in rl007[0].message
