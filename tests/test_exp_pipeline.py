"""Tests for the unified experiment pipeline (spec, registry, runner)."""

from __future__ import annotations

import pytest

from repro.core.timings import Timings
from repro.exp import (ExperimentSpec, Runner, get_experiment,
                       list_experiments, run_experiment)

#: A small spec with several independent points — cheap enough for a
#: parallel-vs-serial comparison, rich enough to exercise the merge.
SWEEP_SPEC = ExperimentSpec(
    experiment="throughput",
    n_switches=4,
    routings=("updown",),
    rates=(0.01, 0.02, 0.04, 0.06),
    duration_ns=30_000.0,
    warmup_ns=3_000.0,
)


class TestRegistry:
    def test_all_experiments_registered(self):
        names = {exp.name for exp in list_experiments()}
        assert {"fig7", "fig8", "throughput", "apps", "root-study",
                "ablation-load", "ablation-bufpool",
                "ablation-timing", "vc-study"} <= names

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="fig7"):
            get_experiment("teleport")

    def test_experiments_have_titles_and_options(self):
        for exp in list_experiments():
            assert exp.title
            spec = exp.default_spec()
            assert spec.experiment == exp.name
            assert exp.points(spec), exp.name


class TestSpec:
    def test_round_trip(self):
        spec = ExperimentSpec(
            experiment="fig8", sizes=(16, 1024), iterations=7,
            timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
            params={"note": "x"},
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_replace(self):
        spec = ExperimentSpec(experiment="fig7", sizes=(16,))
        other = spec.replace(iterations=3)
        assert other.iterations == 3 and other.sizes == (16,)
        assert spec.iterations == 100  # original untouched


class TestRunner:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            Runner().run(SWEEP_SPEC, jobs=0)

    @pytest.mark.parametrize("experiment", ["fig7", "fig8", "throughput",
                                            "apps", "vc-study"])
    def test_spec_without_points_raises(self, experiment):
        """A bare spec leaves the experiment's grid empty: the run
        must fail naming the experiment, not return nothing."""
        with pytest.raises(ValueError, match=experiment):
            Runner().run(ExperimentSpec(experiment=experiment))

    def test_accepts_experiment_name(self):
        report = Runner().run(
            get_experiment("root-study").default_spec().replace(
                n_switches=8))
        assert len(report.result.rows) == 2

    def test_on_point_fires_in_order(self):
        seen = []
        Runner().run(SWEEP_SPEC, on_point=lambda i, v: seen.append(i))
        assert seen == [0, 1, 2, 3]

    def test_observe_collects_metrics(self, tmp_path):
        from repro.obs.exporters import parse_prometheus_text

        spec = SWEEP_SPEC.replace(rates=(0.02,))
        (tmp_path / "obs").mkdir()  # an empty directory is accepted
        report = Runner().run(spec, metrics_out=str(tmp_path / "obs"))
        assert report.spec.observe
        # One build: one routing at one rate.
        assert [p.name for p in (tmp_path / "obs").iterdir()] == ["p000-b0"]
        metrics = parse_prometheus_text(
            (tmp_path / "obs" / "p000-b0" / "metrics.prom").read_text())
        sent = sum(v for (name, _labels), v in metrics.items()
                   if name == "nic_packets_sent")
        busy = sum(v for (name, _labels), v in metrics.items()
                   if name == "fabric_channel_busy_ns")
        assert sent > 0 and busy > 0
        assert not Runner().run(spec).spec.observe

    def test_observe_without_metrics_out_raises(self):
        with pytest.raises(ValueError, match="metrics_out"):
            Runner().run(SWEEP_SPEC.replace(observe=True))

    @pytest.mark.parametrize("existing", ["build", "file"])
    def test_used_metrics_out_raises_before_any_point(self, tmp_path,
                                                      monkeypatch, existing):
        """A directory that already holds files, or a file, is refused
        before the first point is measured."""
        import repro.exp.runner as runner

        def no_points(_payload):
            raise AssertionError("a point ran")

        monkeypatch.setattr(runner, "_measure_point", no_points)
        out = tmp_path / "obs"
        if existing == "build":
            (out / "p004-b0").mkdir(parents=True)
        else:
            out.write_text("")
        with pytest.raises(ValueError, match="not an empty directory"):
            Runner().run(SWEEP_SPEC, metrics_out=str(out))


class TestParallelDeterminism:
    """Acceptance: --jobs 4 == --jobs 1, byte for byte."""

    def test_persisted_documents_byte_identical(self, tmp_path):
        p1 = tmp_path / "jobs1.json"
        p4 = tmp_path / "jobs4.json"
        Runner().run(SWEEP_SPEC, jobs=1, save=str(p1))
        Runner().run(SWEEP_SPEC, jobs=4, save=str(p4))
        assert p1.read_bytes() == p4.read_bytes()

    def test_merged_result_matches_serial(self):
        serial = Runner().run(SWEEP_SPEC, jobs=1)
        parallel = Runner().run(SWEEP_SPEC, jobs=4)
        a = [(p.routing, p.accepted, p.mean_latency_ns)
             for p in serial.result.points]
        b = [(p.routing, p.accepted, p.mean_latency_ns)
             for p in parallel.result.points]
        assert a == b


class TestPipelineMatchesDirectMeasurement:
    """The Runner adds orchestration, not different numbers:
    pipeline output equals a bare direct measurement."""

    def test_fig7_identical_to_direct(self):
        from repro.core.builder import build_network
        from repro.harness.fig7 import measure_fig7_point, run_fig7

        via_pipeline = run_fig7(sizes=(16, 1024), iterations=3)
        direct = [measure_fig7_point(s, 3, None, 2001,
                                     build=build_network)
                  for s in (16, 1024)]
        assert [(r.size, r.original_ns, r.modified_ns)
                for r in via_pipeline.rows] == \
            [(r.size, r.original_ns, r.modified_ns) for r in direct]

    def test_run_experiment_convenience(self):
        result = run_experiment(
            ExperimentSpec(experiment="fig8", sizes=(16,), iterations=2),
        )
        assert len(result.rows) == 1
        assert result.rows[0].overhead_ns > 0
