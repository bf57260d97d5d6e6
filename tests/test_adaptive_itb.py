"""Adaptive ITB host selection: oracle equivalence, legality, determinism.

The load-bearing contract of :mod:`repro.routing.selectors` is the
*zero-load oracle*: with no congestion signal every policy must
degrade to the paper's static placement, byte for byte — identical
route tables, identical goldens, identical span dumps, serial or
parallel.  Adaptivity may only engage on a live nonzero signal, and
even then each chosen route must stay inside the candidate set the
ITB router enumerated (so legality and deadlock-freedom are never at
the selector's mercy).  This module pins all of that down, plus the
fork-pool determinism of the seeded policies.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exp import Runner, get_experiment
from repro.gm.mapper import ItbReselector, remap_tables
from repro.harness.adaptive import (busiest_default_itb_host,
                                    measure_adaptive_point,
                                    shifting_hotspot_traffic)
from repro.harness.throughput import build_load_network
from repro.harness.workloads import drive_traffic, hotspot_traffic
from repro.obs.tracing import configure, disable
from repro.routing.cdg import is_deadlock_free
from repro.routing.itb import first_host_policy
from repro.routing.routes import RouteError
from repro.routing.selectors import (SELECTOR_NAMES, LeastLoadedSelector,
                                     MapCongestionView, Selector,
                                     make_selector)
from repro.topology.generators import random_irregular
from tests.oracles.itb import ReferenceReselector

#: The 8-switch study fabric: seed 11 yields 8 ITB pairs whose default
#: in-transit host (22) shares its switch with host 23 — a real
#: two-candidate selection site.
N_SWITCHES, TOPO_SEED, HPS = 8, 11, 2


def _topo():
    return random_irregular(N_SWITCHES, seed=TOPO_SEED, hosts_per_switch=HPS)


def _build(policy=None, view=None, interval_ns=None):
    net = build_load_network(_topo(), "itb")
    reselector = None
    if policy is not None:
        selector = make_selector(policy, view=view)
        reselector = ItbReselector(net, selector, interval_ns=interval_ns)
    return net, reselector


def _snapshot(net):
    return {
        src: dict(net.nics[src].route_table.entries)
        for src in sorted(net.nics)
    }


def _itb_cuts(net):
    """Every (violation switch, src, dst) selection site in the tables."""
    cuts = []
    for src in sorted(net.nics):
        table = net.nics[src].route_table
        for dst in table.destinations():
            for host in table.entries[dst].itb_hosts:
                cuts.append((net.topo.switch_of(host), src, dst))
    return cuts


def _all_routes(net):
    routes = []
    for src in sorted(net.nics):
        table = net.nics[src].route_table
        routes.extend(table.entries[dst] for dst in table.destinations())
    return routes


# ---------------------------------------------------------------------------
# selector unit behaviour
# ---------------------------------------------------------------------------


class TestSelectors:
    def test_make_selector_covers_registry(self):
        for name in SELECTOR_NAMES:
            assert make_selector(name).name == name

    def test_unknown_policy_raises(self):
        with pytest.raises(RouteError, match="teleport"):
            make_selector("teleport")

    def test_no_view_is_static_everywhere(self):
        net, _ = _build()
        cuts = _itb_cuts(net)
        assert cuts, "study fabric must have ITB pairs"
        for name in SELECTOR_NAMES:
            sel = make_selector(name)
            for sw, src, dst in cuts:
                assert sel(net.topo, sw, src, dst) == \
                    first_host_policy(net.topo, sw, src, dst)

    def test_zero_view_is_static_everywhere(self):
        net, _ = _build()
        view = MapCongestionView()
        for name in SELECTOR_NAMES:
            sel = make_selector(name, view=view)
            for sw, src, dst in _itb_cuts(net):
                assert sel(net.topo, sw, src, dst) == \
                    first_host_policy(net.topo, sw, src, dst)

    def _two_candidate_cut(self, net):
        for sw, src, dst in _itb_cuts(net):
            if len(net.topo.hosts_on(sw)) >= 2:
                return sw, src, dst
        pytest.skip("no multi-candidate violation switch on this fabric")

    def test_least_loaded_diverts_off_loaded_static_pick(self):
        net, _ = _build()
        sw, src, dst = self._two_candidate_cut(net)
        candidates = net.topo.hosts_on(sw)
        view = MapCongestionView({candidates[0]: 1000.0})
        sel = make_selector("least-loaded", view=view)
        assert sel(net.topo, sw, src, dst) == candidates[1]
        assert sel.engaged == 1

    def test_least_loaded_returns_when_load_clears(self):
        net, _ = _build()
        sw, src, dst = self._two_candidate_cut(net)
        candidates = net.topo.hosts_on(sw)
        view = MapCongestionView({candidates[0]: 1000.0})
        sel = make_selector("least-loaded", view=view)
        assert sel(net.topo, sw, src, dst) == candidates[1]
        view.set_load(candidates[0], 0.0)
        assert sel(net.topo, sw, src, dst) == candidates[0]

    def test_ewma_remembers_recent_load(self):
        net, _ = _build()
        sw, src, dst = self._two_candidate_cut(net)
        candidates = net.topo.hosts_on(sw)
        view = MapCongestionView({candidates[0]: 1000.0})
        sel = make_selector("ewma", view=view)
        assert sel(net.topo, sw, src, dst) == candidates[1]
        # Load moves to the alternate; the smoothed history still
        # penalises the old hotspot more, so the pick sticks until the
        # average crosses over.
        view.set_load(candidates[0], 0.0)
        view.set_load(candidates[1], 10.0)
        assert sel(net.topo, sw, src, dst) == candidates[1]

    def test_random_stays_in_candidates_and_replays(self):
        net, _ = _build()
        cuts = _itb_cuts(net)
        view = MapCongestionView({h: 1.0 for h in net.topo.hosts()})
        a = make_selector("random", view=view, seed=5)
        b = make_selector("random", view=view, seed=5)
        picks_a = [a(net.topo, sw, s, d) for sw, s, d in cuts]
        picks_b = [b(net.topo, sw, s, d) for sw, s, d in reversed(cuts)]
        assert picks_a == list(reversed(picks_b))
        for (sw, _s, _d), pick in zip(cuts, picks_a):
            assert pick in net.topo.hosts_on(sw)

    def test_roundrobin_cycles_with_epoch(self):
        net, _ = _build()
        sw, src, dst = self._two_candidate_cut(net)
        candidates = net.topo.hosts_on(sw)
        view = MapCongestionView({candidates[0]: 1.0})
        sel = make_selector("roundrobin", view=view)
        seen = set()
        for _ in range(len(candidates)):
            seen.add(sel(net.topo, sw, src, dst))
            sel.begin_epoch()
        assert seen == set(candidates)

    def test_out_of_candidates_choice_is_rejected(self):
        class Rogue(Selector):
            name = "rogue"

            def choose(self, topo, switch, src, dst, candidates, loads):
                return -1

        net, _ = _build()
        sw, src, dst = self._two_candidate_cut(net)
        rogue = Rogue(view=MapCongestionView({net.topo.hosts_on(sw)[0]: 1.0}))
        with pytest.raises(RouteError, match="not a"):
            rogue(net.topo, sw, src, dst)


# ---------------------------------------------------------------------------
# zero-load oracle: every policy IS static until a signal exists
# ---------------------------------------------------------------------------


class TestZeroLoadOracle:
    def test_reselection_is_identity_for_every_policy(self):
        static, _ = _build()
        want = _snapshot(static)
        for name in SELECTOR_NAMES:
            for view in (None, MapCongestionView()):
                net, reselector = _build(name, view=view)
                for _ in range(3):
                    reselector.reselect()
                assert _snapshot(net) == want, (name, view)
                assert reselector.pairs_changed == 0

    def test_span_dumps_byte_identical_to_static(self):
        def traced_run(policy):
            try:
                configure(sample_every=1)
                net, _reselector = _build(policy, view=MapCongestionView(),
                                          interval_ns=10_000.0)
                hosts = sorted(net.gm_hosts)
                hot = busiest_default_itb_host(net)
                drive_traffic(net, 0.02, 512, 40_000.0,
                              pattern=hotspot_traffic(hosts, hot),
                              seed=7, warmup_ns=5_000.0)
                return net.fabric.tracer.dump_json()
            finally:
                disable()

        want = traced_run("static")
        assert '"itb_' in want or want  # static dump is the reference
        for name in SELECTOR_NAMES:
            assert traced_run(name) == want, name

    def test_experiment_rows_collapse_to_static_at_zero_view(self):
        exp = get_experiment("adaptive-itb")
        spec = exp.default_spec().replace(
            duration_ns=30_000.0, warmup_ns=6_000.0,
            params={**exp.default_spec().params,
                    "switch_list": (8,), "view": "zero"},
        )
        report = Runner().run(spec)
        rows = report.result.rows
        by_matrix = {}
        for row in rows:
            by_matrix.setdefault(row.matrix, []).append(row)
        for matrix, group in by_matrix.items():
            static = [r for r in group if r.policy == "static"][0]
            for row in group:
                assert row.stats == static.stats, (matrix, row.policy)
                assert row.reselect_changed == 0
                assert row.engaged == 0


# ---------------------------------------------------------------------------
# any occupancy history keeps routes legal and deadlock-free
# ---------------------------------------------------------------------------


class TestSelectionLegality:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=63),
                  st.floats(min_value=0.0, max_value=1e9,
                            allow_nan=False, allow_infinity=False)),
        max_size=24,
    ))
    def test_any_occupancy_history_yields_legal_tables(self, updates):
        view = MapCongestionView()
        net, reselector = _build("least-loaded", view=view)
        hosts = sorted(net.gm_hosts)
        for idx, load in updates:
            view.set_load(hosts[idx % len(hosts)], load)
            reselector.reselect()
        for sw, _src, _dst in _itb_cuts(net):
            assert net.topo.hosts_on(sw), "ITB host must sit on its switch"
        for route in _all_routes(net):
            for host, nxt in zip(route.itb_hosts, route.segments[1:]):
                assert nxt.src == host
                assert host in net.topo.hosts_on(net.topo.switch_of(host))
        assert is_deadlock_free(net.topo, _all_routes(net))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_policy_tables_always_legal(self, seed):
        adaptive, _ = _build()
        view = MapCongestionView()
        for h in sorted(adaptive.gm_hosts):
            view.set_load(h, float((h * 2654435761) % 97) + 1.0)
        selector = make_selector("random", view=view, seed=seed)
        reselector = ItbReselector(adaptive, selector)
        reselector.reselect()
        for route in _all_routes(adaptive):
            for host in route.itb_hosts:
                assert host in adaptive.topo.hosts_on(
                    adaptive.topo.switch_of(host))
        assert is_deadlock_free(adaptive.topo, _all_routes(adaptive))


# ---------------------------------------------------------------------------
# template stamping + route memo == the hop-by-hop reference
# ---------------------------------------------------------------------------


def _memo_bound(net, src, dst):
    """Product of the candidate counts over a pair's cut switches."""
    bound = 1
    for host in net.nics[src].route_table.entries[dst].itb_hosts:
        bound *= len(net.topo.hosts_on(net.topo.switch_of(host)))
    return bound


class TestStampedReselection:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(SELECTOR_NAMES),
        st.lists(
            st.lists(st.tuples(
                st.integers(min_value=0, max_value=63),
                st.floats(min_value=0.0, max_value=1e9,
                          allow_nan=False, allow_infinity=False)),
                max_size=6),
            min_size=1, max_size=8),
    )
    def test_every_pass_matches_hop_by_hop_reference(self, policy, history):
        view = MapCongestionView()
        net, reselector = _build(policy, view=view)
        twin = make_selector(policy, view=view)
        reference = ReferenceReselector(net, twin)
        selector = reselector.selector
        hosts = sorted(net.gm_hosts)
        for updates in history:
            for idx, load in updates:
                view.set_load(hosts[idx % len(hosts)], load)
            assert reselector.reselect() == reference.reselect()
            assert _snapshot(net) == reference.tables
            assert (selector.decisions, selector.engaged) == \
                (twin.decisions, twin.engaged)
        assert reselector.pairs_changed == reference.pairs_changed
        for (src, dst), memo in reselector._memos.items():
            assert len(memo) <= _memo_bound(net, src, dst)

    def test_memo_fills_to_the_candidate_product_and_is_reused(self):
        net, reselector = _build(
            "roundrobin",
            view=MapCongestionView({h: 1.0 for h in _topo().hosts()}))
        for _ in range(6):
            reselector.reselect()
        full = 0
        for (src, dst), memo in reselector._memos.items():
            bound = _memo_bound(net, src, dst)
            assert 1 <= len(memo) <= bound
            full += len(memo) == bound > 1
            # The installed route is the memo's object, not a copy.
            route = net.nics[src].route_table.entries[dst]
            assert any(r is route for r in memo.values())
        assert full, "rotation must reach every candidate of some pair"


class _CountingView(MapCongestionView):
    """A :class:`MapCongestionView` that counts its load reads."""

    def __init__(self, loads=None):
        super().__init__(loads)
        self.reads = 0

    def host_load(self, host):
        self.reads += 1
        return super().host_load(host)


class TestPassPolicy:
    """A switch-keyed policy decides each cut switch once per pass, and
    nothing outside a pass ever sees that decision."""

    def test_switch_keyed_policies(self):
        keyed = {name for name in SELECTOR_NAMES
                 if make_selector(name).switch_keyed}
        assert keyed == {"static", "least-loaded"}

    def test_least_loaded_pass_reads_each_cut_switch_once(self):
        view = _CountingView()
        net, reselector = _build("least-loaded", view=view)
        selector = reselector.selector
        cuts = _itb_cuts(net)
        switches = {sw for sw, _src, _dst in cuts}
        assert len(cuts) > len(switches), "need several cuts per switch"
        budget = sum(len(net.topo.hosts_on(sw)) for sw in switches)
        sw = cuts[0][0]
        first, second = net.topo.hosts_on(sw)[:2]
        at_sw = sum(1 for s, _src, _dst in cuts if s == sw)

        def one_pass():
            view.reads = 0
            decisions, engaged = selector.decisions, selector.engaged
            reselector.reselect()
            assert view.reads <= budget
            assert selector.decisions - decisions == len(cuts)
            return selector.engaged - engaged

        def hosts_at_sw():
            return {host for route in _all_routes(net)
                    for host in route.itb_hosts
                    if net.topo.switch_of(host) == sw}

        assert one_pass() == 0
        assert hosts_at_sw() == {first}
        # The next pass sees loads set between passes.
        view.set_load(first, 4096.0)
        assert one_pass() == at_sw
        assert hosts_at_sw() == {second}
        view.set_load(first, 0.0)
        view.set_load(second, 4096.0)
        assert one_pass() == 0
        assert hosts_at_sw() == {first}

    def test_raising_choose_leaves_no_memo(self):
        class FailsOnSecondSwitch(LeastLoadedSelector):
            def __init__(self, view):
                super().__init__(view)
                self.choices = 0

            def choose(self, topo, switch, src, dst, candidates, loads):
                self.choices += 1
                if self.choices == 2:
                    raise RuntimeError("choose failed mid-pass")
                return super().choose(topo, switch, src, dst, candidates,
                                      loads)

        topo = random_irregular(12, seed=3, hosts_per_switch=2)
        net = build_load_network(topo, "itb")
        view = _CountingView({h: 1.0 for h in topo.hosts()})
        selector = FailsOnSecondSwitch(view)
        reselector = ItbReselector(net, selector)
        cuts = _itb_cuts(net)
        assert len({sw for sw, _src, _dst in cuts}) >= 2
        with pytest.raises(RuntimeError, match="mid-pass"):
            reselector.reselect()
        # The first switch was decided (lowest id on equal loads) before
        # the failure; a direct call after it must read live loads.
        sw, src, dst = cuts[0]
        first, second = topo.hosts_on(sw)[:2]
        view.set_load(first, 4096.0)
        view.reads = 0
        assert selector(topo, sw, src, dst) == second
        assert view.reads == len(topo.hosts_on(sw))

    def test_linkdown_remaps_follow_loads_between_calls(self):
        view = MapCongestionView()
        net, reselector = _build("least-loaded", view=view)
        reselector.reselect()  # its decisions must not outlive the pass
        # Losing the 1-3 cable keeps ITB splits on this fabric.
        down = {next(link.link_id for link in net.topo.links
                     if {link.node_a, link.node_b} == {1, 3})}
        remap_tables(net, down)
        switches = {sw for sw, _src, _dst in _itb_cuts(net)}
        assert switches, "the degraded fabric must still route via an ITB"
        firsts = {net.topo.hosts_on(sw)[0] for sw in switches}
        seconds = {net.topo.hosts_on(sw)[1] for sw in switches}

        def itb_hosts():
            return {host for route in _all_routes(net)
                    for host in route.itb_hosts}

        assert itb_hosts() == firsts
        for host in firsts:
            view.set_load(host, 4096.0)
        assert remap_tables(net, down) > 0
        assert itb_hosts() == seconds
        for host in firsts:
            view.set_load(host, 0.0)
        for host in seconds:
            view.set_load(host, 4096.0)
        assert remap_tables(net, down) > 0
        assert itb_hosts() == firsts


# ---------------------------------------------------------------------------
# fork-pool determinism (satellite: jobs-1 vs jobs-4 byte identity)
# ---------------------------------------------------------------------------


class TestDeterminism:
    def _quick_spec(self):
        exp = get_experiment("adaptive-itb")
        return exp.default_spec().replace(
            duration_ns=30_000.0, warmup_ns=6_000.0,
            params={**exp.default_spec().params,
                    "switch_list": (8,),
                    "policies": ("static", "random", "least-loaded")},
        )

    def test_jobs_1_vs_4_results_byte_identical(self, tmp_path):
        from repro.harness.persist import save_results

        spec = self._quick_spec()
        paths = []
        for jobs in (1, 4):
            report = Runner().run(spec, jobs=jobs)
            path = tmp_path / f"jobs{jobs}.json"
            save_results(path, {"adaptive-itb": report.result},
                         specs={"adaptive-itb": spec})
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_measure_point_replays_exactly(self):
        kwargs = dict(
            policy="least-loaded", matrix="shifting", rate=0.04,
            n_switches=8, packet_size=512, duration_ns=30_000.0,
            warmup_ns=6_000.0, topo_seed=11, traffic_seed=7,
            hosts_per_switch=2,
        )
        a = measure_adaptive_point(**kwargs)
        b = measure_adaptive_point(**kwargs)
        assert a.stats == b.stats
        assert (a.reselect_changed, a.engaged) == \
            (b.reselect_changed, b.engaged)


# ---------------------------------------------------------------------------
# harness odds and ends
# ---------------------------------------------------------------------------


class TestHarness:
    def test_busiest_host_is_an_itb_host(self):
        net, _ = _build()
        hot = busiest_default_itb_host(net)
        assert hot is not None
        assert any(hot in r.itb_hosts for r in _all_routes(net))

    def test_shifting_pattern_cycles_hotspots(self):
        clock = {"t": 0.0}
        pattern = shifting_hotspot_traffic(
            [0, 1, 2, 3], hotspots=[1, 2], period_ns=100.0,
            now_fn=lambda: clock["t"], fraction=1.0,
        )

        class AlwaysHot:
            def random(self):
                return 0.0

            def integers(self, n):
                return 0

        rng = AlwaysHot()
        assert pattern(0, rng) == 1
        clock["t"] = 150.0
        assert pattern(0, rng) == 2
        clock["t"] = 250.0
        assert pattern(0, rng) == 1

    def test_shifting_pattern_validates_inputs(self):
        with pytest.raises(ValueError):
            shifting_hotspot_traffic([0], [], 10.0, lambda: 0.0)
        with pytest.raises(ValueError):
            shifting_hotspot_traffic([0], [0], 0.0, lambda: 0.0)
        with pytest.raises(ValueError):
            shifting_hotspot_traffic([0], [0], 10.0, lambda: 0.0,
                                     fraction=1.5)

    def test_unknown_matrix_and_view_raise(self):
        with pytest.raises(ValueError, match="matrix"):
            measure_adaptive_point(
                "static", "mesh", 0.02, 8, 512, 10_000.0, 2_000.0,
                11, 7, 2)
        with pytest.raises(ValueError, match="view"):
            measure_adaptive_point(
                "static", "hotspot", 0.02, 8, 512, 10_000.0, 2_000.0,
                11, 7, 2, view="psychic")
