"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--preset", "gigantic"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.preset == "tiny"
        assert args.seed == 7


class TestCommands:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "tiny" in out

    def test_run(self, capsys):
        assert main(["run", "--preset", "tiny", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "messages" in out
        assert "mta" in out

    def test_experiment_single(self, capsys):
        assert main(["experiment", "fig1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "=== fig1 ===" in out
        assert "challenges sent" in out

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_multiple(self, capsys):
        assert main(["experiment", "fig1", "sec31", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "=== fig1 ===" in out
        assert "=== sec31 ===" in out


class TestSweep:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.runs == 3
        assert args.jobs == 1
        assert args.no_cache is False

    def test_invalid_runs_rejected(self, capsys):
        assert main(["sweep", "--runs", "0", "--no-cache"]) == 2
        assert "--runs" in capsys.readouterr().err

    def test_invalid_jobs_rejected(self, capsys):
        assert main(["sweep", "--jobs", "0", "--no-cache"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_sweep_runs_and_reports_counters(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "runs"))
        assert main(["sweep", "--preset", "tiny", "--seed", "3",
                     "--runs", "1", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "correlation stability" in out
        assert "1 simulated, 0 from cache" in out
        # Second invocation answers from the cache: zero simulations,
        # and the cached record prints the run's metrics map too.
        assert main(["sweep", "--preset", "tiny", "--seed", "3",
                     "--runs", "1", "--jobs", "1"]) == 0
        warm = capsys.readouterr().out
        assert "0 simulated, 1 from cache" in warm
        metric_lines = re.compile(r"^  [a-z_]+\.\S+  .*$", re.MULTILINE)
        assert "  ledger.accepted  " in warm
        assert metric_lines.findall(warm) == metric_lines.findall(out)
