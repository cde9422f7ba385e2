"""Tests for the EXPERIMENTS.md report parsers and the report writer
(scripts/)."""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import code_fingerprint

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name,
                                                  SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def mod():
    return _load("build_experiments_md")


@pytest.fixture(scope="module")
def writer():
    return _load("run_paper_experiments")


EXP1_SAMPLE = """Readings at mean RT = 70 s:
  ASL        TPS@RT70 = 0.687, useful utilization 69%
  C2PL       TPS@RT70 = 0.285, useful utilization 29%
  NODC       TPS@RT70 = 0.999, useful utilization 100%
  NODC saturation rate λ_S = 1.04 TPS (paper: 1.08)
"""

EXP2_SAMPLE = """Figure 8: NumHots vs throughput at RT = 70 s (TPS)
NumHots    ASL   C2PL  CHAIN     K2
-------  -----  -----  -----  -----
      4  0.248  0.457  0.331  0.476
      8  0.333  0.502  0.512  0.672
"""

EXP4_SAMPLE = """Figure 10: error ratio sigma vs throughput at RT = 70 s
sigma  CHAIN     K2
-----  -----  -----
0.000  0.611  0.599
1.000  0.576  0.529

  CHAIN loss at sigma=1: 5.8% (paper at sigma=1: 4.6%)
  K2 loss at sigma=1: 11.8% (paper at sigma=1: 13.8%)
"""


class TestParsers:
    def test_tps_readings(self, mod):
        readings = mod.tps_readings(EXP1_SAMPLE)
        assert readings["ASL"] == (0.687, 69)
        assert readings["C2PL"][0] == 0.285

    def test_saturation_regex(self, mod):
        assert float(mod.SATURATION.search(EXP1_SAMPLE).group(1)) == 1.04

    def test_figure8_table(self, mod):
        table = mod.figure8_table(EXP2_SAMPLE)
        assert table[4]["K2"] == 0.476
        assert table[8]["ASL"] == 0.333
        assert set(table) == {4, 8}

    def test_figure10_table(self, mod):
        table = mod.figure10_table(EXP4_SAMPLE)
        assert table[0.0]["CHAIN"] == 0.611
        assert table[1.0]["K2"] == 0.529

    def test_loss_lines(self, mod):
        losses = {m.group(1): float(m.group(3))
                  for m in mod.LOSS_LINE.finditer(EXP4_SAMPLE)}
        assert losses == {"CHAIN": 5.8, "K2": 11.8}

    def test_missing_results_give_clear_error(self, mod, monkeypatch,
                                              tmp_path):
        monkeypatch.setattr(mod, "RESULTS", tmp_path)
        with pytest.raises(SystemExit, match="missing"):
            mod.read("exp1")


class TestEndToEnd:
    def test_build_runs_against_real_results(self, mod):
        # The repository ships the full-fidelity reports; building the
        # document from them must succeed and contain the verdict table.
        if not (mod.RESULTS / "exp4.txt").exists():
            pytest.skip("full results not generated yet")
        text = mod.build()
        assert "| Exp |" in text
        assert "Experiment 1 (Figures 6 and 7)" in text

    def test_build_reproduces_the_committed_document(self, mod):
        # EXPERIMENTS.md is the builder's output on the committed
        # reports, hand-written sections included: regenerating it
        # loses nothing.
        assert mod.build() == mod.OUT.read_text(encoding="utf-8")


class TestStampedReports:
    def test_build_parses_stamped_reports(self, mod, writer, monkeypatch,
                                          tmp_path):
        # save() ends each report with the simulator's code fingerprint;
        # the document built from stamped reports differs from the one
        # built from the plain reports only by those stamp lines and by
        # no longer saying that the reports predate the stamp.
        if not (mod.RESULTS / "exp4.txt").exists():
            pytest.skip("full results not generated yet")
        plain = mod.build()
        monkeypatch.setattr(writer, "RESULTS", tmp_path)
        for name in ("exp1", "exp2", "exp3", "exp4"):
            writer.save(name, mod.read(name).rstrip("\n"))
        monkeypatch.setattr(mod, "RESULTS", tmp_path)
        stamp = f"code fingerprint: {code_fingerprint()}"
        assert (tmp_path / "exp1.txt").read_text().endswith(stamp + "\n")
        stamped = mod.build()
        assert stamped.count(stamp) == 4
        unstamped_intro = ("that wrote it;\n"
                           "the reports committed in `results/` predate "
                           "that stamp.\n")
        assert unstamped_intro in plain
        assert "predate" not in stamped
        assert [line for line in stamped.splitlines()
                if stamp not in line] == plain.replace(
                    unstamped_intro, "that wrote it.\n").splitlines()

    def test_jobs_must_be_a_positive_int(self, writer, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv",
                            ["run_paper_experiments.py", "--jobs", "0"])
        with pytest.raises(SystemExit) as exit_info:
            writer.main()
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err
