"""Tests for the 16->512 switch scale study (EXP-SCALE)."""

from __future__ import annotations

import pytest

from repro.exp import Runner, get_experiment
from repro.harness.persist import load_results, save_results
from repro.harness.scale_study import (
    ScaleDynamicPoint,
    ScaleStudyResult,
    ScaleStudyRow,
    family_topology,
    fat_tree_k_for,
    measure_scale_point,
)
from repro.routing.itb import ItbRouter
from repro.routing.updown import UpDownRouter


def _quick_spec(**params):
    spec = get_experiment("scale-study").default_spec()
    merged = dict(spec.params)
    merged.update({"targets": [16], "dynamic_max": 16, "rate": 0.06})
    merged.update(params)
    return spec.replace(params=merged, duration_ns=40_000.0,
                        warmup_ns=8_000.0)


class TestFamilyConfig:
    def test_fat_tree_ladder(self):
        assert fat_tree_k_for(16) == 2
        assert fat_tree_k_for(32) == 4
        assert fat_tree_k_for(64) == 6
        assert fat_tree_k_for(128) == 10
        assert fat_tree_k_for(512) == 20

    def test_families_land_at_or_below_target(self):
        for family in ("clos", "fattree", "irregular"):
            for target in (16, 64, 128):
                topo = family_topology(family, target, seed=11)
                assert len(topo.switches()) <= target
                topo.validate()

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            family_topology("mesh", 16, seed=1)


class TestMeasureScalePoint:
    def test_irregular_itb_restores_minimal_paths(self):
        """The paper's claim at scale: ITB coverage is 1.0 and its
        saturation bound beats up*/down*'s on irregular fabrics."""
        ud = measure_scale_point("irregular", 32, "updown", topo_seed=11,
                                 dynamic_max=0)
        itb = measure_scale_point("irregular", 32, "itb", topo_seed=11,
                                  dynamic_max=0)
        assert itb.minimal_coverage == 1.0
        assert itb.avg_stretch == 1.0
        assert ud.minimal_coverage < 1.0
        assert (itb.saturation_bytes_per_ns_per_host
                > ud.saturation_bytes_per_ns_per_host)
        assert itb.root_load_fraction < ud.root_load_fraction
        assert itb.itb_pairs_fraction > 0
        assert itb.total_itbs > 0
        assert ud.dynamic is None  # dynamic_max=0 suppresses traffic

    def test_regular_fabrics_degenerate_to_updown(self):
        """On Clos and fat trees the spine/core switches carry no
        hosts, so ITB has nothing to legalize with — the mechanism
        honestly reports zero splits and identical coverage."""
        for family in ("clos", "fattree"):
            itb = measure_scale_point(family, 32, "itb", topo_seed=11,
                                      dynamic_max=0)
            ud = measure_scale_point(family, 32, "updown", topo_seed=11,
                                     dynamic_max=0)
            assert itb.itb_pairs_fraction == 0.0
            assert itb.total_itbs == 0
            assert itb.minimal_coverage == ud.minimal_coverage == 1.0
            assert (itb.saturation_bytes_per_ns_per_host
                    == ud.saturation_bytes_per_ns_per_host)

    def test_dynamic_point_present_when_small(self):
        row = measure_scale_point("irregular", 16, "updown", topo_seed=11,
                                  rate=0.06, dynamic_max=16,
                                  duration_ns=40_000.0, warmup_ns=8_000.0)
        assert row.dynamic is not None
        assert row.dynamic.offered == 0.06
        assert row.dynamic.accepted > 0
        assert 0 < row.dynamic.delivered_fraction <= 1.0

    @pytest.mark.parametrize("routing", ["updown", "itb"])
    def test_dynamic_point_routes_each_pair_once(self, monkeypatch,
                                                 routing):
        """The dynamic build stamps the routes the point scored, so each
        ordered host pair is routed once, not once per build."""
        routed = []
        for cls in (UpDownRouter, ItbRouter):
            def counting(self, *args, _routes_from=cls.routes_from,
                         **kwargs):
                out = _routes_from(self, *args, **kwargs)
                routed.extend(out)
                return out

            monkeypatch.setattr(cls, "routes_from", counting)
        row = measure_scale_point("irregular", 16, routing, topo_seed=11,
                                  rate=0.06, dynamic_max=16,
                                  duration_ns=10_000.0, warmup_ns=2_000.0)
        assert row.dynamic is not None
        assert len(routed) == row.n_pairs == row.n_hosts * (row.n_hosts - 1)


class TestQuickRun:
    def test_quick_study_end_to_end(self, tmp_path):
        path = tmp_path / "scale.json"
        report = Runner().run(
            _quick_spec(), save=str(path))
        result = report.result
        assert isinstance(result, ScaleStudyResult)
        # 3 families x 1 target x 2 routings.
        assert len(result.rows) == 6
        assert result.saturation_ratio("irregular", 16) >= 1.0

        row = result.row("irregular", 16, "itb")
        assert row.n_switches == 16
        assert row.dynamic is not None

        loaded = load_results(path)
        assert loaded["scale-study"] == result

    def test_render_mentions_ratio(self):
        exp = get_experiment("scale-study")
        spec = _quick_spec()
        report = Runner().run(spec)
        text = exp.render(spec, report.result, args=None)
        assert "EXP-SCALE" in text
        assert "saturation" in text
        assert "irregular@16" in text

    def test_result_round_trips_standalone(self, tmp_path):
        row = ScaleStudyRow(
            family="irregular", target=64, n_switches=64, n_hosts=64,
            n_links=160, diameter=5, root=3, routing="itb", n_pairs=4032,
            minimal_coverage=1.0, avg_stretch=1.0,
            root_load_fraction=0.1, max_channel_load=94,
            saturation_bytes_per_ns_per_host=0.107,
            itb_pairs_fraction=0.41, total_itbs=1700,
            max_itbs_per_host=300, build_s=0.01, route_s=0.11,
            dynamic=ScaleDynamicPoint(offered=0.08, accepted=0.05,
                                      mean_latency_ns=9000.0,
                                      delivered_fraction=0.9),
        )
        result = ScaleStudyResult(
            families=("irregular",), targets=(64,),
            routings=("updown", "itb"), topo_seed=11, rows=[row],
        )
        path = tmp_path / "standalone.json"
        save_results(path, {"scale-study": result})
        assert load_results(path)["scale-study"] == result


class TestTopoCli:
    def test_stats_view(self, capsys):
        from repro.cli import main

        assert main(["topo", "clos:m=4,n=1,r=12"]) == 0
        out = capsys.readouterr().out
        assert "clos-m4-n1-r12" in out
        assert "root candidates" in out
        assert "spine0" in out

    def test_text_and_dot_views(self, capsys):
        from repro.cli import main

        assert main(["topo", "fattree:k=2", "--text"]) == 0
        assert "topology" in capsys.readouterr().out
        assert main(["topo", "fattree:k=2", "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_bad_spec_is_a_clean_error(self, capsys):
        from repro.cli import main

        assert main(["topo", "nope:n=3"]) == 2
        assert "unknown generator" in capsys.readouterr().err

    def test_experiment_registered(self):
        from repro.exp import list_experiments

        assert "scale-study" in {e.name for e in list_experiments()}
