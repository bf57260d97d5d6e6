"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.harness.paths import fig6_paths
from repro.obs.tracing import SpanTracer
from repro.sim.engine import Simulator
from repro.topology.generators import fig1_topology, fig6_testbed


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def quiet_timings() -> Timings:
    """Timings with host noise disabled — fully deterministic runs."""
    return Timings().with_overrides(host_jitter_sigma_ns=0.0)


@pytest.fixture
def fig6():
    """(topology, roles) for the paper's evaluation testbed."""
    return fig6_testbed()


@pytest.fixture
def fig1():
    """(topology, roles) for the Figure 1 example network."""
    return fig1_topology()


def make_fig6_network(firmware: str = "itb", routing: str = "updown",
                      timings: Timings | None = None, **kw):
    """Build a fig6 network with deterministic timings by default."""
    config = NetworkConfig(
        firmware=firmware,
        routing=routing,
        timings=timings or Timings().with_overrides(host_jitter_sigma_ns=0.0),
        **kw,
    )
    return build_network("fig6", config=config)


@pytest.fixture
def fig6_net_itb():
    return make_fig6_network(firmware="itb")


@pytest.fixture
def fig6_net_original():
    return make_fig6_network(firmware="original")


@pytest.fixture
def fig6_routes(fig6_net_itb):
    return fig6_paths(fig6_net_itb.topo, fig6_net_itb.roles)


def send_traced(net, src: int, dst: int, size: int = 64, route=None):
    """Send one packet at the firmware boundary with every span recorded.

    Attaches a :class:`SpanTracer` to ``net`` unless one is attached,
    opens the message/attempt root pair as ``drive_traffic`` does,
    runs to the packet's final disposition and closes the root there.
    Returns ``(tp, tracer)``.
    """
    tracer = net.fabric.tracer
    if tracer is None:
        tracer = net.fabric.tracer = SpanTracer()
    ctx = tracer.open_message(net.sim.now, f"test[{src}]",
                              src=src, dst=dst, length=size)
    done = net.sim.event("traced-send")
    net.nics[src].firmware.host_send(
        dst=dst, payload_len=size, gm={"last": True}, route=route,
        on_delivered=lambda tp: done.succeed(tp), trace=ctx)
    tp = net.sim.run_until_event(done)
    ctx.root.close(net.sim.now,
                   "ok" if not tp.dropped else (tp.drop_reason or "dropped"))
    return tp, tracer
