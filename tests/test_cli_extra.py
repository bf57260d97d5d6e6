"""Additional CLI coverage: apps subcommand, parser defaults and
registry-generated experiment commands."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestAppsCommand:
    def test_apps_runs_small(self, capsys):
        rc = main([
            "run", "apps", "--switches", "4", "--iterations", "1",
            "--packet-size", "128", "--hosts-per-switch", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "EXP-M2" in out
        assert "all-to-all" in out and "ring" in out


class TestParserDefaults:
    def test_fig7_defaults(self):
        args = build_parser().parse_args(["run", "fig7"])
        assert args.iterations == 20
        assert not args.full and not args.plot

    def test_throughput_defaults(self):
        args = build_parser().parse_args(["run", "throughput"])
        assert args.switches == 16
        assert args.packet_size == 512
        assert len(args.rates) == 3

    def test_validate_defaults(self):
        args = build_parser().parse_args(["validate"])
        assert args.iterations == 20
        assert not args.throughput

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_discover_random(self, capsys):
        rc = main(["discover", "--topology", "random", "--switches", "4"])
        assert rc == 0
        assert "switches discovered" in capsys.readouterr().out


class TestRunCommand:
    def test_run_experiment_by_name(self, capsys):
        rc = main(["run", "fig7", "--iterations", "2"])
        assert rc == 0
        assert "paper ~125 ns" in capsys.readouterr().out

    def test_run_with_jobs_and_save(self, capsys, tmp_path):
        out_path = tmp_path / "doc.json"
        rc = main(["run", "root-study", "--switches", "8",
                   "--jobs", "2", "--save", str(out_path)])
        assert rc == 0
        assert out_path.exists()
        from repro.harness.persist import load_results

        loaded = load_results(out_path)
        assert len(loaded["root-study"].rows) == 2
        assert loaded["specs"]["root-study"].experiment == "root-study"

    def test_list_shows_registered_experiments(self, capsys):
        rc = main(["list"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("fig7", "fig8", "throughput", "apps", "root-study"):
            assert name in out

    def test_unknown_experiment_exits_2_with_choices(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "teleport"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "fig7" in err

    def test_jobs_zero_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "fig7", "--jobs", "0"])
        assert exc_info.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_jobs_non_integer_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "fig7", "--jobs", "many"])
        assert exc_info.value.code == 2

