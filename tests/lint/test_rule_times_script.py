"""Smoke test for ``scripts/lint_rule_times.py``, the per-rule timer the
rule audit in docs/lint.md is measured with."""

import os
import re
import subprocess
import sys
from pathlib import Path

from repro.lint import all_rules

REPO = Path(__file__).resolve().parents[2]


def test_prints_one_row_per_registered_rule():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run(
        [sys.executable, "scripts/lint_rule_times.py", "--repeats", "1",
         "src/repro/engine"],
        cwd=REPO, env=env, capture_output=True, text=True, check=True,
        timeout=120).stdout
    rows = re.findall(r"^(RL\d{3}): +[\d.]+ ms +[\d.]+% of the full run$",
                      out, flags=re.MULTILINE)
    assert rows == [rule.rule_id for rule in all_rules()]
    assert len(rows) == 11
