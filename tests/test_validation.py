"""Tests for the one-shot claim validation."""

from __future__ import annotations

import pytest

from repro.harness.validation import ValidationReport, validate_claims


class TestValidationReport:
    def test_add_and_verdicts(self):
        report = ValidationReport()
        report.add("f7.mean_overhead_ns", 125.0)
        report.add("f7.mean_overhead_ns", 999.0)
        assert report.n_checked == 2
        assert not report.all_hold
        rendered = report.render()
        assert "yes" in rendered and "NO" in rendered

    def test_unknown_claim_rejected(self):
        with pytest.raises(KeyError):
            ValidationReport().add("nope", 1.0)


class TestValidateClaims:
    @pytest.fixture(scope="class")
    def report(self):
        return validate_claims(iterations=5, sizes=(16, 1024, 4096))

    def test_all_quick_claims_hold(self, report):
        failing = [c.key for (c, _m, ok) in report.entries if not ok]
        assert report.all_hold, f"violated: {failing}"

    def test_covers_both_figures(self, report):
        keys = {c.key for (c, _m, _ok) in report.entries}
        assert any(k.startswith("f7.") for k in keys)
        assert any(k.startswith("f8.") for k in keys)
        assert any(k.startswith("method.") for k in keys)

    def test_throughput_excluded_by_default(self, report):
        keys = {c.key for (c, _m, _ok) in report.entries}
        assert "m1.throughput_ratio_64sw" not in keys

    def test_include_throughput_measures_64_switches(self, monkeypatch):
        """``include_throughput=True`` alone judges the EXP-M1 ratio on
        the 64-switch network.  The sweep costs minutes, so the runner
        is stubbed for that one experiment."""
        from types import SimpleNamespace

        from repro.exp import Runner, RunReport

        real_run = Runner.run
        swept = []

        def run(self, spec, **kwargs):
            if spec.experiment != "throughput":
                return real_run(self, spec, **kwargs)
            swept.append(spec)
            return RunReport(spec=spec,
                             result=SimpleNamespace(throughput_ratio=2.0),
                             n_points=0, jobs=1, elapsed_s=0.0)

        monkeypatch.setattr(Runner, "run", run)
        report = validate_claims(iterations=2, sizes=(16,),
                                 include_throughput=True)
        measured = {c.key: m for (c, m, _ok) in report.entries}
        assert measured["m1.throughput_ratio_64sw"] == 2.0
        assert [spec.n_switches for spec in swept] == [64]


class TestCliValidate:
    def test_exit_code_zero_when_all_hold(self, capsys):
        from repro.cli import main

        rc = main(["validate", "--iterations", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ALL HOLD" in out
