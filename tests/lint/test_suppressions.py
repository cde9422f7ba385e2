"""Suppression directives: same-line scope, mandatory justification."""

import textwrap
import tokenize
from pathlib import Path

from repro.lint import LintRunner
from repro.lint.suppressions import parse_suppressions

BAD_LINE = "    except Exception:  # repro-lint: disable={directive}\n"


def lint(source, logical="repro/machine/example.py"):
    return LintRunner().check_source(textwrap.dedent(source),
                                     display="<fixture>", logical=logical)


def make_source(directive):
    return (
        "def run(task):\n"
        "    try:\n"
        "        task()\n"
        f"    except Exception:  # repro-lint: disable={directive}\n"
        "        pass\n"
    )


def test_justified_suppression_silences_the_rule():
    source = make_source("RL005 -- fixture exercising the escape hatch")
    assert lint(source) == []


def test_unjustified_suppression_is_an_rl000_violation():
    source = make_source("RL005")
    violations = lint(source)
    # The RL005 finding is silenced, but the naked directive itself is
    # flagged so every escape hatch in the tree documents its rationale.
    assert [v.rule_id for v in violations] == ["RL000"]
    assert violations[0].line == 4
    assert "justification" in violations[0].message


def test_suppression_only_covers_named_rules():
    source = make_source("RL001 -- wrong rule named")
    assert [v.rule_id for v in lint(source)] == ["RL005"]


def test_suppression_only_covers_its_own_line():
    source = (
        "# repro-lint: disable=RL005 -- wrong line\n"
        "def run(task):\n"
        "    try:\n"
        "        task()\n"
        "    except Exception:\n"
        "        pass\n"
    )
    assert [v.rule_id for v in lint(source)] == ["RL005"]


def test_directive_parser_handles_multiple_rules_and_case():
    table = parse_suppressions(
        "x = 1  # repro-lint: disable=rl001, RL004 -- both apply here\n")
    assert list(table) == [1]
    directive = table[1]
    assert directive.rule_ids == frozenset({"RL001", "RL004"})
    assert directive.justified
    assert directive.justification == "both apply here"


def test_directive_without_rules_names_nothing():
    table = parse_suppressions("x = 1  # repro-lint: disable= -- why\n")
    assert table[1].rule_ids == frozenset()


def test_the_source_tree_keeps_exactly_two_suppressions():
    """Every ``repro-lint: disable`` comment in ``src/``, pinned, so the
    set can only shrink: both are RL009 reads the justification proves
    safe.  Comments are found with tokenize, so docstrings that show the
    directive syntax do not count."""
    src = Path(__file__).resolve().parents[2] / "src"
    found = []
    for path in sorted(src.rglob("*.py")):
        with path.open("rb") as handle:
            for token in tokenize.tokenize(handle.readline):
                if (token.type == tokenize.COMMENT
                        and "repro-lint: disable" in token.string):
                    [directive] = parse_suppressions(token.string).values()
                    found.append((path.relative_to(src).as_posix(),
                                  sorted(directive.rule_ids)))
    assert found == [("repro/machine/data_node.py", ["RL009"]),
                     ("repro/machine/shard.py", ["RL009"])]
