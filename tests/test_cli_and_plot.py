"""Tests for the CLI and the ASCII plotter."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.harness.ascii_plot import line_plot


class TestLinePlot:
    def test_basic_render(self):
        out = line_plot([1, 2, 3], {"a": [1.0, 2.0, 3.0]}, width=20,
                        height=5, title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert "o" in out  # first-series marker
        assert "o=a" in out

    def test_two_series_distinct_markers(self):
        out = line_plot([1, 2], {"ud": [1.0, 2.0], "itb": [2.0, 3.0]})
        assert "o=ud" in out and "x=itb" in out

    def test_log_x(self):
        out = line_plot([1, 10, 100, 1000], {"s": [1, 2, 3, 4]}, logx=True)
        # On a log axis the points are evenly spaced: the marker
        # columns of consecutive points differ by a constant.
        rows = [l for l in out.splitlines() if "o" in l and "|" in l]
        cols = sorted(l.index("o") for l in rows)
        gaps = [b - a for a, b in zip(cols, cols[1:])]
        assert max(gaps) - min(gaps) <= 2

    def test_constant_series_ok(self):
        out = line_plot([1, 2], {"flat": [5.0, 5.0]})
        assert "o" in out

    def test_validation(self):
        with pytest.raises(ValueError):
            line_plot([], {})
        with pytest.raises(ValueError):
            line_plot([1, 2], {"bad": [1.0]})
        with pytest.raises(ValueError):
            line_plot([0, 1], {"s": [1, 2]}, logx=True)
        with pytest.raises(ValueError):
            line_plot([1], {c: [1.0] for c in "abcdefg"})


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig1_runs(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "deadlock-free" in out

    def test_fig7_runs(self, capsys):
        assert main(["run", "fig7", "--iterations", "3"]) == 0
        out = capsys.readouterr().out
        assert "overhead" in out
        assert "paper ~125 ns" in out

    def test_fig8_with_plot(self, capsys):
        assert main(["run", "fig8", "--iterations", "3", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "UD-ITB" in out
        assert "o=UD" in out  # the chart legend

    def test_throughput_runs(self, capsys):
        assert main([
            "run", "throughput", "--switches", "4", "--rates", "0.02",
            "--duration", "30", "--hosts-per-switch", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "peak ratio" in out

    def test_discover_runs(self, capsys):
        assert main(["discover", "--topology", "fig6"]) == 0
        out = capsys.readouterr().out
        assert "switches discovered" in out
