"""CLI tests for ``--explain`` and the flag set as a whole.

The other flags (--json, --select, --ignore, --list-rules, SARIF) are
covered in test_engine.py and test_sarif.py.
"""

from repro.lint.cli import build_parser, main


def test_cli_has_six_flags():
    flags = sorted(option for action in build_parser()._actions
                   for option in action.option_strings
                   if option not in ("-h", "--help"))
    assert flags == ["--explain", "--ignore", "--json", "--list-rules",
                     "--sarif", "--select"]


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
