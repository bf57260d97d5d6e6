"""Tests for the packet-timeline waterfall renderer (``waterfall_lines``)."""

from __future__ import annotations

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.harness.paths import fig6_paths
from repro.obs.tracing import SpanTracer, span_tree, waterfall_lines
from tests.conftest import send_traced

WIDTH = 44  # waterfall_lines' default bar width
LABEL = 26  # width of the indented-name column


def traced_packet(route_name=None, size=256):
    """The span tree of one firmware-level packet on fig6."""
    cfg = NetworkConfig(
        firmware="itb", routing="updown",
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
    )
    net = build_network("fig6", config=cfg)
    route = None
    if route_name is not None:
        route = getattr(fig6_paths(net.topo, net.roles), route_name)
    _tp, tracer = send_traced(net, net.roles["host1"], net.roles["host2"],
                              size=size, route=route)
    return tracer


def flatten(roots):
    """(name, depth) of every node, depth first — the renderer's order."""
    out = []

    def walk(node, depth):
        out.append((node["name"], depth))
        for child in node["children"]:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return out


def bar(line: str) -> str:
    return line.split("|")[1]


class TestWaterfall:
    def test_one_row_per_span(self):
        """One row per span, depth first, names indented by depth."""
        tracer = traced_packet()
        roots = span_tree(tracer.spans)
        lines = waterfall_lines(roots)
        assert len(lines) == len(tracer.spans)
        for line, (name, depth) in zip(lines, flatten(roots)):
            assert line[:LABEL].rstrip() == "  " * depth + name
        assert lines[0].startswith("message")
        assert lines[-1].strip().startswith("recv")

    def test_itb_path_shows_detection_and_segment_1_wire(self):
        """Through the in-transit host the waterfall shows detection
        and re-injection programming, then the segment-1 wire."""
        tracer = traced_packet("itb5", size=4096)
        roots = span_tree(tracer.spans)
        names = [name.strip() for name in
                 (line[:LABEL] for line in waterfall_lines(roots))]
        assert "itb_detect" in names and "itb_program" in names
        wires = [i for i, name in enumerate(names) if name == "wire"]
        assert len(wires) == 2
        assert names.index("itb_detect") < wires[1]
        seg1 = [n for n in roots[0]["children"][0]["children"]
                if n["name"] == "wire" and n["attrs"]["seg"] == 1]
        assert len(seg1) == 1

    def test_bars_stay_inside_width(self):
        """Bars stay inside the width and are never empty."""
        tracer = traced_packet("itb5")
        for width in (10, WIDTH, 80):
            for line in waterfall_lines(span_tree(tracer.spans),
                                        width=width):
                strip = bar(line)
                assert len(strip) == width
                assert strip.strip() and set(strip.strip()) == {"#"}
                assert line.rstrip().endswith("us")

    def test_zero_length_span_draws_one_column(self):
        """A lone zero-length span still draws a one-column bar."""
        tracer = SpanTracer()
        tracer.begin("message", 5.0).close(5.0)
        (line,) = waterfall_lines(span_tree(tracer.spans), width=20)
        assert bar(line) == "#" + " " * 19
        assert "0.000 us" in line

    def test_non_ok_status_noted(self):
        tracer = SpanTracer()
        root = tracer.begin("message", 0.0)
        tracer.begin("attempt", 0.0, parent=root).close(800.0, "killed")
        root.close(1_000.0)
        lines = waterfall_lines(span_tree(tracer.spans))
        assert not lines[0].endswith("]")
        assert lines[1].endswith("[killed]")
