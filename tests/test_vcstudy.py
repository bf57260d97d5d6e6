"""Tests for the ITB-vs-virtual-channel head-to-head study (EXP-VC)."""

from __future__ import annotations

from repro.exp import Runner, get_experiment
from repro.harness.persist import load_results, save_results
from repro.harness.vcstudy import (
    VcStudyResult,
    analyze_arm,
    study_arms,
    study_routes,
    study_topology,
    vc_lanes_for,
)


def _quick_spec():
    """The --quick spec: one saturating rate, short window."""
    return get_experiment("vc-study").default_spec().replace(
        rates=(0.12,), duration_ns=60_000.0, warmup_ns=12_000.0)


class TestArms:
    def test_five_mechanisms(self):
        topo = study_topology(8, 5, 2)
        arms = study_arms(topo)
        assert [a.mechanism for a in arms] == [
            "updown", "itb", "minimal", "vc", "itb+vc"]

    def test_minimal_is_static_only(self):
        topo = study_topology(8, 5, 2)
        arms = {a.mechanism: a for a in study_arms(topo)}
        assert not arms["minimal"].dynamic
        assert all(a.dynamic for m, a in arms.items() if m != "minimal")

    def test_vc_arm_sized_by_lanes_required(self):
        """The headline topology needs >2 escape lanes — the study
        grants minimal routing exactly what the dateline walk demands."""
        topo = study_topology(8, 5, 2)
        need = vc_lanes_for(topo)
        assert need >= 2
        arms = {a.mechanism: a for a in study_arms(topo)}
        assert arms["vc"].lanes == need
        assert arms["vc"].lane_policy == "escape"
        assert arms["itb+vc"].lanes == 2
        assert arms["itb+vc"].lane_policy == "roundrobin"

    def test_static_verdicts(self):
        """Minimal routing deadlocks unlaned on the headline topology;
        every dynamic arm is provably deadlock-free."""
        topo = study_topology(8, 5, 2)
        routes = study_routes(topo)
        for arm in study_arms(topo):
            free, _need = analyze_arm(topo, arm, routes[arm.routing])
            assert free == (arm.mechanism != "minimal")


class TestRouteBuilds:
    def test_each_route_set_built_once_per_run(self, monkeypatch):
        """``points`` sizes the VC arm from one minimal build, and
        ``summarize`` routes updown, itb and minimal once each: at most
        4 all-pairs builds per run, not one per arm."""
        import repro.harness.vcstudy as vcstudy

        calls = []
        all_pairs_routes = vcstudy._all_pairs_routes

        def counting(topo, routing):
            calls.append(routing)
            return all_pairs_routes(topo, routing)

        monkeypatch.setattr(vcstudy, "_all_pairs_routes", counting)
        Runner().run(_quick_spec())
        assert len(calls) <= 4, calls


class TestQuickRun:
    """One end-to-end --quick run through the Runner, assertions on
    the row the README headline table is built from."""

    def test_quick_study_end_to_end(self, tmp_path):
        path = tmp_path / "vc.json"
        report = Runner().run(
            _quick_spec(), save=str(path))
        result = report.result
        assert isinstance(result, VcStudyResult)
        rows = {r.mechanism: r for r in result.rows}
        assert set(rows) == {"updown", "itb", "minimal", "vc", "itb+vc"}

        # The deadlocked arm carries a verdict but no traffic points.
        assert rows["minimal"].deadlock_free is False
        assert rows["minimal"].points == []
        for mech in ("updown", "itb", "vc", "itb+vc"):
            assert rows[mech].deadlock_free is True
            assert rows[mech].points

        # The acceptance configuration: ITB+VC beats either alone.
        assert result.combined_wins_throughput
        assert rows["itb+vc"].peak_accepted > rows["updown"].peak_accepted

        # Persist round-trip rehydrates the dataclass tree losslessly.
        loaded = load_results(path)
        assert loaded["vc-study"] == result

    def test_result_round_trips_standalone(self, tmp_path):
        """save_results/load_results on a hand-built result, without
        running traffic — pins the persist registry entry."""
        from repro.harness.vcstudy import VcLoadPoint, VcMechanismResult

        row = VcMechanismResult(
            mechanism="vc", routing="minimal", lanes=3,
            lane_policy="escape", deadlock_free=True, lanes_required=3,
            points=[VcLoadPoint(offered=0.1, accepted=0.05,
                                mean_latency_ns=9000.0,
                                p99_latency_ns=20000.0,
                                delivered_fraction=0.5)],
        )
        result = VcStudyResult(n_switches=8, hosts_per_switch=2,
                               packet_size=512, topo_seed=5, rows=[row])
        path = tmp_path / "standalone.json"
        save_results(path, {"vc-study": result})
        assert load_results(path)["vc-study"] == result
