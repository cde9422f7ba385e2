"""Tests for the claim-verification battery (tiny runs)."""

from pathlib import Path

import pytest

from repro.experiments.verify import (ClaimCheck, report_verification,
                                      verify_paper_claims)

#: ``python -m repro verify > results/verify.txt`` (200k clocks, seed 1).
COMMITTED = Path(__file__).resolve().parents[2] / "results" / "verify.txt"


@pytest.fixture(scope="module")
def checks():
    # The battery's default horizon: short runs haven't built up the
    # backlog that makes C2PL collapse, so claims only stabilise here.
    return verify_paper_claims(sim_clocks=200_000, seed=1)


class TestBattery:
    def test_every_experiment_covered(self, checks):
        experiments = {c.experiment for c in checks}
        assert {"exp1", "exp2", "exp3", "exp4"} <= experiments
        assert "conclusion-4" in experiments

    def test_all_checks_carry_evidence(self, checks):
        for check in checks:
            assert check.evidence
            assert check.claim

    def test_headline_claims_pass_at_small_scale(self, checks):
        # Every claim, the headline ones included, holds on the
        # battery's scaled default horizon.
        assert [c.claim for c in checks if not c.passed] == []

    def test_committed_report_matches_the_battery(self, checks):
        # results/verify.txt is the CLI's stdout for the same battery:
        # any drift in a verified number shows up here.
        assert report_verification(checks) + "\n" == COMMITTED.read_text()


class TestReport:
    def test_report_format(self, checks):
        text = report_verification(checks)
        assert "verdict" in text
        assert "paper claims verified" in text

    def test_report_counts_failures(self):
        checks = [ClaimCheck("exp1", "a", True, "x"),
                  ClaimCheck("exp2", "b", False, "y")]
        text = report_verification(checks)
        assert "1/2" in text
        assert "1 FAILED" in text
        assert "FAIL" in text

    def test_progress_callback_invoked(self):
        seen = []
        verify_paper_claims(sim_clocks=40_000, seed=2,
                            progress=seen.append)
        assert any("experiment 1" in message for message in seen)
