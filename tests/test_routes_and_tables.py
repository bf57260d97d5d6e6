"""Tests for route datatypes and NIC route tables."""

from __future__ import annotations

import pickle
import weakref

import pytest

from repro.mcp.packet_format import encode_packet
from repro.routing.routes import ItbRoute, RouteError, SourceRoute
from repro.routing.tables import RouteTable, build_route_tables
from repro.routing.updown import UpDownRouter
from repro.topology.generators import fig1_topology


class TestSourceRoute:
    def test_length_mismatch_rejected(self):
        with pytest.raises(RouteError):
            SourceRoute(src=0, dst=1, ports=(1, 2), switch_path=(5,))

    def test_empty_route_rejected(self):
        with pytest.raises(RouteError):
            SourceRoute(src=0, dst=1, ports=(), switch_path=())

    def test_counting_helpers(self):
        r = SourceRoute(src=0, dst=1, ports=(1, 2, 3), switch_path=(7, 8, 9))
        assert r.n_switches == 3
        assert len(r) == 3
        assert r.n_links == 4
        assert r.switch_hops() == [(7, 8), (8, 9)]


class TestItbRoute:
    def seg(self, src, dst, sw):
        return SourceRoute(src=src, dst=dst, ports=(0,), switch_path=(sw,))

    def test_chain_integrity_enforced(self):
        s1 = self.seg(0, 5, 10)
        bad = self.seg(6, 1, 11)  # 6 != 5
        with pytest.raises(RouteError):
            ItbRoute((s1, bad))

    def test_empty_rejected(self):
        with pytest.raises(RouteError):
            ItbRoute(())

    def test_properties(self):
        s1 = self.seg(0, 5, 10)
        s2 = self.seg(5, 6, 11)
        s3 = self.seg(6, 1, 12)
        route = ItbRoute((s1, s2, s3))
        assert route.src == 0 and route.dst == 1
        assert route.itb_hosts == (5, 6)
        assert route.n_itbs == 2
        assert route.n_switches == 3
        assert list(route) == [s1, s2, s3]

    def test_single_segment_has_no_itbs(self):
        route = ItbRoute((self.seg(0, 1, 10),))
        assert route.n_itbs == 0 and route.itb_hosts == ()


class TestRouteObjects:
    """Slotted route objects: no ``__dict__``, but weak references,
    pickling, equality and hashing all work, header memo included."""

    @pytest.fixture
    def route(self):
        return ItbRoute((
            SourceRoute(src=0, dst=5, ports=(1, 2), switch_path=(10, 11)),
            SourceRoute(src=5, dst=1, ports=(3,), switch_path=(11,)),
        ))

    def test_no_instance_dict(self, route):
        for obj in (route, route.segments[0]):
            assert not hasattr(obj, "__dict__")
            with pytest.raises(AttributeError):
                object.__setattr__(obj, "extra", 1)

    def test_weakref(self, route):
        for obj in (route, route.segments[0]):
            assert weakref.ref(obj)() is obj

    def test_header_memo_is_not_part_of_the_value(self, route):
        fresh = ItbRoute(route.segments)
        image = encode_packet(route, 8)
        assert route._packet_header is not None
        assert fresh._packet_header is None
        assert route == fresh and hash(route) == hash(fresh)
        assert encode_packet(fresh, 8).data == image.data

    def test_pickle_round_trip_keeps_the_memo(self, route):
        image = encode_packet(route, 8)
        restored = pickle.loads(pickle.dumps(route))
        assert restored == route and hash(restored) == hash(route)
        assert restored._packet_header == route._packet_header
        assert encode_packet(restored, 8).data == image.data
        assert restored.segments[1] == route.segments[1]


class TestRouteTable:
    def test_install_and_lookup(self):
        table = RouteTable(host=0)
        r = SourceRoute(src=0, dst=1, ports=(0,), switch_path=(10,))
        table.install(1, r)
        assert table.lookup(1).segments[0] is r
        assert table.destinations() == [1]
        assert len(table) == 1

    def test_lookup_missing_raises(self):
        with pytest.raises(RouteError):
            RouteTable(host=0).lookup(42)

    def test_wrong_owner_rejected(self):
        table = RouteTable(host=0)
        r = SourceRoute(src=5, dst=1, ports=(0,), switch_path=(10,))
        with pytest.raises(RouteError):
            table.install(1, r)

    def test_wrong_destination_rejected(self):
        table = RouteTable(host=0)
        r = SourceRoute(src=0, dst=1, ports=(0,), switch_path=(10,))
        with pytest.raises(RouteError):
            table.install(2, r)


class TestBuildRouteTables:
    def test_complete_tables(self):
        topo, roles = fig1_topology()
        router = UpDownRouter(topo)
        tables = build_route_tables(topo.hosts(), router)
        n = len(topo.hosts())
        assert len(tables) == n
        for h, table in tables.items():
            assert len(table) == n - 1

    def test_pairs_override(self):
        topo, roles = fig1_topology()
        router = UpDownRouter(topo)
        s, d = roles["host_on_sw0"], roles["host_on_sw1"]
        special = ItbRoute((router.route(s, d),))
        tables = build_route_tables([s, d], router, pairs={(s, d): special})
        assert tables[s].lookup(d) is special
