"""CLI tests for the PR 9 flags: ``--explain`` and ``--changed-only``.

The older flags (--json, --select, baselines, SARIF) are covered
in test_engine.py, test_baseline.py and test_sarif.py; this file holds
only the rule-explanation and git-scoped-reporting surface.
"""

import subprocess

from repro.lint.cli import main

BAD_SOURCE = (
    "def run(task):\n"
    "    try:\n"
    "        task()\n"
    "    except:\n"
    "        pass\n"
)


# -- --explain ----------------------------------------------------------------

def test_explain_typestate_rule_renders_the_protocol_table(capsys):
    assert main(["--explain", "RL013"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("RL013  ")
    assert "protocol: BAT lifecycle" in out
    assert "states: pending, active, aborted, committed (+ invalid)" in out
    assert ".reset_for_retry()" in out
    assert "restart only from aborted" in out


def test_explain_is_case_insensitive(capsys):
    assert main(["--explain", "rl014"]) == 0
    out = capsys.readouterr().out
    assert "protocol: Event lifecycle" in out
    assert "write to ._value" in out
    assert "(forbidden)" in out


def test_explain_plain_rule_prints_only_the_catalogue_entry(capsys):
    assert main(["--explain", "RL001"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("RL001  ")
    assert "protocol:" not in out


def test_explain_rejects_unknown_rules(capsys):
    assert main(["--explain", "RL999"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err and "RL016" in err


# -- --changed-only -----------------------------------------------------------

def _git(cwd, *args):
    subprocess.run(
        ["git", "-c", "user.email=t@example.com", "-c", "user.name=t",
         *args],
        cwd=cwd, check=True, capture_output=True)


def _seed_repo(tmp_path):
    repo = tmp_path / "work"
    pkg = repo / "repro" / "machine"
    pkg.mkdir(parents=True)
    (pkg / "old.py").write_text(BAD_SOURCE)
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "seed")
    return repo, pkg


def test_changed_only_reports_only_dirty_files(tmp_path, capsys,
                                               monkeypatch):
    repo, pkg = _seed_repo(tmp_path)
    (pkg / "new.py").write_text(BAD_SOURCE)
    monkeypatch.chdir(repo)
    assert main(["--changed-only", "."]) == 1
    out = capsys.readouterr().out
    assert "new.py" in out
    assert "old.py" not in out
    assert "1 violation in unchanged files not shown" in out


def test_changed_only_is_clean_when_only_committed_files_violate(
        tmp_path, capsys, monkeypatch):
    repo, _pkg = _seed_repo(tmp_path)
    monkeypatch.chdir(repo)
    assert main(["--changed-only", "."]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_changed_only_requires_a_git_work_tree(tmp_path, capsys,
                                               monkeypatch):
    (tmp_path / "x.py").write_text("x = 1\n")
    monkeypatch.chdir(tmp_path)
    assert main(["--changed-only", "x.py"]) == 2
    assert "requires git" in capsys.readouterr().err


def test_changed_only_refuses_to_write_a_partial_baseline(
        tmp_path, capsys, monkeypatch):
    repo, _pkg = _seed_repo(tmp_path)
    monkeypatch.chdir(repo)
    assert main(["--changed-only", "--write-baseline", "b.json", "."]) == 2
    assert "--write-baseline" in capsys.readouterr().err
