"""Additional CLI coverage: apps subcommand, parser defaults, fig1,
bench-report."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestAppsCommand:
    def test_apps_runs_small(self, capsys):
        rc = main([
            "apps", "--switches", "4", "--iterations", "1",
            "--packet-size", "128", "--hosts-per-switch", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "EXP-M2" in out
        assert "all-to-all" in out and "ring" in out


class TestParserDefaults:
    def test_fig7_defaults(self):
        args = build_parser().parse_args(["fig7"])
        assert args.iterations == 20
        assert not args.full and not args.plot

    def test_throughput_defaults(self):
        args = build_parser().parse_args(["throughput"])
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
            main(["fig7", "--jobs", "0"])
        assert exc_info.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_jobs_non_integer_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["fig7", "--jobs", "many"])
        assert exc_info.value.code == 2


class TestAllCommand:
    def test_all_regenerates_and_saves(self, capsys, tmp_path):
        out_path = tmp_path / "results.json"
        rc = main(["all", "--iterations", "3", "--save", str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fig7" in out and "fig8" in out
        assert out_path.exists()
        from repro.harness.persist import load_results

        loaded = load_results(out_path)
        assert "fig7" in loaded and "fig8" in loaded

    def test_all_without_save(self, capsys):
        rc = main(["all", "--iterations", "3"])
        assert rc == 0
        assert "per-ITB overhead" in capsys.readouterr().out


class TestBenchReport:
    """``repro bench-report``: the speedup-ratio regression gate."""

    @staticmethod
    def _write(tmp_path, ratio):
        """A BENCH file measuring ``ratio`` (None: no ratio recorded)
        and a baseline expecting 2.0x; returns the baseline path."""
        record = {"wall_s": 0.5}
        if ratio is not None:
            record["speedup_ratio"] = ratio
        doc = {"format": "bench-trajectory/1", "group": "engine",
               "full_scale": False, "records": {"test_bench_x": record}}
        (tmp_path / "BENCH_engine.json").write_text(json.dumps(doc))
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"engine": {"test_bench_x": 2.0}}))
        return str(path)

    def _report(self, tmp_path, baseline, *extra):
        return main(["bench-report", "--dir", str(tmp_path),
                     "--baseline", baseline, *extra])

    def test_within_tolerance_passes(self, tmp_path, capsys):
        baseline = self._write(tmp_path, ratio=1.6)
        assert self._report(tmp_path, baseline) == 0
        assert "within 25% of baseline" in capsys.readouterr().out

    def test_below_floor_fails_naming_the_test(self, tmp_path, capsys):
        baseline = self._write(tmp_path, ratio=1.4)
        assert self._report(tmp_path, baseline) == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err and "engine:test_bench_x" in err

    def test_baseline_entry_without_measured_ratio_fails(self, tmp_path,
                                                         capsys):
        baseline = self._write(tmp_path, ratio=None)
        assert self._report(tmp_path, baseline) == 1
        assert "no measured speedup ratio" in capsys.readouterr().err

    def test_no_bench_files_exits_2(self, tmp_path, capsys):
        assert main(["bench-report", "--dir", str(tmp_path)]) == 2
        assert "no BENCH_*.json files" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["1.5", "1", "-0.1", "nan"])
    def test_tolerance_outside_unit_interval_exits_2(self, tmp_path,
                                                      capsys, tolerance):
        baseline = self._write(tmp_path, ratio=0.2)
        with pytest.raises(SystemExit) as exc_info:
            self._report(tmp_path, baseline, "--tolerance", tolerance)
        assert exc_info.value.code == 2
        assert "must be in [0, 1)" in capsys.readouterr().err
