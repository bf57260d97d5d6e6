"""Tests for result persistence (JSON round-trips)."""

from __future__ import annotations

import json

import pytest

from repro.core.timings import Timings
from repro.exp import ExperimentSpec, Runner, get_experiment
from repro.harness.ablations import (AblationLoadResult, BufferPoolResult,
                                     BufferPoolStudyResult, TimingSweepResult,
                                     TimingSweepRow)
from repro.harness.apps import AppResult, AppsResult
from repro.harness.persist import (from_document, load_results, save_results,
                                   to_document)
from repro.harness.root_study import RootStudyResult, RootStudyRow


@pytest.fixture(scope="module")
def small_results():
    t = Timings().with_overrides(host_jitter_sigma_ns=0.0)
    specs = {
        "fig7": get_experiment("fig7").default_spec().replace(
            sizes=(16, 1024), iterations=3, timings=t),
        "fig8": get_experiment("fig8").default_spec().replace(
            sizes=(16, 1024), iterations=3, timings=t),
        "m1": get_experiment("throughput").default_spec().replace(
            n_switches=4, packet_size=256, rates=(0.02,),
            duration_ns=40_000, warmup_ns=5_000),
    }
    return {key: Runner().run(spec).result for key, spec in specs.items()}


class TestRoundTrip:
    def test_fig7_round_trip(self, small_results, tmp_path):
        path = save_results(tmp_path / "r.json",
                            {"fig7": small_results["fig7"]})
        loaded = load_results(path)["fig7"]
        original = small_results["fig7"]
        assert loaded.iterations == original.iterations
        assert [(r.size, r.original_ns, r.modified_ns)
                for r in loaded.rows] == \
            [(r.size, r.original_ns, r.modified_ns) for r in original.rows]
        # Derived quantities survive the trip.
        assert loaded.mean_overhead_ns == pytest.approx(
            original.mean_overhead_ns)

    def test_fig8_round_trip(self, small_results, tmp_path):
        path = save_results(tmp_path / "r.json",
                            {"fig8": small_results["fig8"]})
        loaded = load_results(path)["fig8"]
        assert loaded.mean_overhead_ns == pytest.approx(
            small_results["fig8"].mean_overhead_ns)

    def test_throughput_round_trip(self, small_results, tmp_path):
        path = save_results(tmp_path / "r.json",
                            {"m1": small_results["m1"]})
        loaded = load_results(path)["m1"]
        original = small_results["m1"]
        assert loaded.n_switches == 4
        assert len(loaded.points) == 2  # 1 rate x 2 routings
        # Real ThroughputResult with working derived quantities.
        assert loaded.throughput_ratio == pytest.approx(
            original.throughput_ratio)
        assert [p.accepted for p in loaded.points] == \
            pytest.approx([p.accepted for p in original.points])

    def test_multiple_results_and_extra(self, small_results, tmp_path):
        path = save_results(
            tmp_path / "all.json",
            {"fig7": small_results["fig7"], "fig8": small_results["fig8"]},
            extra={"note": "quick run", "seed": 2001},
        )
        loaded = load_results(path)
        assert set(loaded) == {"fig7", "fig8", "extra"}
        assert loaded["extra"]["note"] == "quick run"

    def test_file_is_plain_json(self, small_results, tmp_path):
        path = save_results(tmp_path / "r.json",
                            {"fig7": small_results["fig7"]})
        blob = json.loads(path.read_text())
        assert blob["format_version"] == 2
        assert "fig7" in blob["results"]

    def test_spec_round_trip(self, small_results, tmp_path):
        spec = ExperimentSpec(experiment="fig7", sizes=(16, 1024),
                              iterations=3)
        path = save_results(tmp_path / "r.json",
                            {"fig7": small_results["fig7"]},
                            specs={"fig7": spec})
        loaded = load_results(path)
        assert loaded["specs"]["fig7"] == spec


class TestEveryKindRoundTrips:
    """The generic codec covers every registered result kind."""

    CASES = {
        "apps": AppsResult(results=[
            AppResult(kernel="ring", routing="updown", n_hosts=4,
                      iterations=2, message_size=512,
                      completion_ns=1000.0, messages=8),
            AppResult(kernel="ring", routing="itb", n_hosts=4,
                      iterations=2, message_size=512,
                      completion_ns=900.0, messages=8),
        ]),
        "root-study": RootStudyResult(rows=[
            RootStudyRow(root_label="optimal", root=3,
                         avg_updown_hops=1.9, avg_itb_hops=1.7,
                         avg_minimal_hops=1.7, pairs_with_itbs=4,
                         n_pairs=12),
        ]),
        "ablation-load": AblationLoadResult(
            size=256, overhead_unloaded_ns=1300.0,
            overhead_loaded_ns=120.0),
        "ablation-bufpool": BufferPoolStudyResult(results=[
            BufferPoolResult(kind="fixed", delivered=50, offered=60,
                             flushed=0, recv_blocked_ns=4000.0,
                             mean_latency_ns=2500.0),
            BufferPoolResult(kind="pool", delivered=58, offered=60,
                             flushed=2, recv_blocked_ns=0.0,
                             mean_latency_ns=1800.0),
        ]),
        "ablation-timing": TimingSweepResult(rows=[
            TimingSweepRow(label="assumed", early_recv_cycles=18,
                           program_dma_cycles=13, overhead_ns=500.0,
                           firmware_cost_ns=475.0),
        ]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_round_trip(self, name, tmp_path):
        original = self.CASES[name]
        path = save_results(tmp_path / "r.json", {name: original})
        loaded = load_results(path)[name]
        assert loaded == original
        assert type(loaded) is type(original)

    def test_document_is_generic(self):
        doc = to_document(self.CASES["ablation-load"])
        rebuilt = from_document(AblationLoadResult, doc)
        assert rebuilt == self.CASES["ablation-load"]


class TestValidation:
    def test_unsupported_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_results(tmp_path / "r.json", {"bad": object()})

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format_version": 99, "results": {}}))
        with pytest.raises(ValueError):
            load_results(path)

    def test_old_format_rejected(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({"format_version": 1, "results": {}}))
        with pytest.raises(ValueError):
            load_results(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({
            "format_version": 2,
            "results": {"x": {"kind": "martian", "data": {}}},
        }))
        with pytest.raises(ValueError):
            load_results(path)
