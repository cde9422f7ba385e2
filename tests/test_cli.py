"""Tests for the command-line interface (tiny runs)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_exp_flags(self):
        args = build_parser().parse_args(
            ["exp1", "--clocks", "1000", "--rates", "0.2,0.4",
             "--schedulers", "asl,k2", "--quiet"])
        assert args.clocks == 1000
        assert args.rates == "0.2,0.4"

    def test_exp2_num_hots(self):
        args = build_parser().parse_args(["exp2", "--num-hots", "4,8"])
        assert args.num_hots == "4,8"

    def test_exp4_sigmas(self):
        args = build_parser().parse_args(["exp4", "--sigmas", "0,1"])
        assert args.sigmas == "0,1"

    @pytest.mark.parametrize("command", ["exp1", "exp2", "exp3", "exp4"])
    @pytest.mark.parametrize("jobs", ["0", "-2", "two"])
    def test_jobs_must_be_a_positive_int(self, command, jobs, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--jobs", jobs, "--quiet"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--jobs" in err


class TestRunErrors:
    @pytest.mark.parametrize("argv,message", [
        (["--control-nodes", "0"], "num_control_nodes must be >= 1"),
        (["--faults", "{missing}"], "No such file or directory"),
        (["--faults", "{plan}"], "fault plan field 'abort_rate' must be"),
        (["--faults", "{broken}"], "fault plan is not valid JSON"),
    ], ids=["no-control-node", "missing-plan", "wrongly-typed-plan",
            "broken-plan"])
    def test_bad_run_input_is_one_error_line(self, argv, message, tmp_path,
                                             capsys):
        """A configuration error or an unreadable plan is reported as
        one ``repro: error:`` line with exit code 2, not a traceback."""
        (tmp_path / "plan.json").write_text('{"abort_rate": true}')
        (tmp_path / "broken.json").write_text('{"abort_rate": ')
        paths = {"missing": tmp_path / "absent.json",
                 "plan": tmp_path / "plan.json",
                 "broken": tmp_path / "broken.json"}
        argv = [arg.format(**paths) for arg in argv]
        assert main(["run", "--clocks", "1000", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro: error: ")
        assert message in lines[0]


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "NumNodes" in out
        assert "ObjTime" in out

    def test_run(self, capsys):
        assert main(["run", "--scheduler", "NODC", "--rate", "0.3",
                     "--clocks", "60000"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "NODC" in out

    def test_exp1_tiny(self, capsys):
        code = main(["exp1", "--clocks", "40000", "--rates", "0.3",
                     "--schedulers", "NODC", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out and "Figure 7" in out

    def test_exp2_tiny(self, capsys):
        code = main(["exp2", "--clocks", "40000", "--rates", "0.3",
                     "--schedulers", "ASL", "--num-hots", "4", "--quiet"])
        assert code == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_exp3_tiny(self, capsys):
        code = main(["exp3", "--clocks", "40000", "--rates", "0.3",
                     "--schedulers", "C2PL", "--quiet"])
        assert code == 0
        assert "Figure 9" in capsys.readouterr().out

    def test_exp4_tiny(self, capsys):
        code = main(["exp4", "--clocks", "40000", "--rates", "0.3",
                     "--schedulers", "K2", "--sigmas", "0,1", "--quiet"])
        assert code == 0
        assert "Figure 10" in capsys.readouterr().out

    def test_jobs_flag_changes_nothing(self, capsys):
        command = ["exp1", "--clocks", "15000", "--rates", "0.5",
                   "--schedulers", "CHAIN,K2", "--quiet"]
        assert main(command) == 0
        serial = capsys.readouterr().out
        assert main(command + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_progress_goes_to_stderr(self, capsys):
        main(["exp1", "--clocks", "40000", "--rates", "0.3",
              "--schedulers", "NODC"])
        captured = capsys.readouterr()
        assert "NODC" in captured.err  # progress line
