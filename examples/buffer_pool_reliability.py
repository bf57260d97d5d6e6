#!/usr/bin/env python3
"""The proposed buffer-pool extension and GM's retransmission safety net.

The paper keeps the stock two-buffer receive queues ("we do not need
more buffers" on an unloaded network) but proposes, for loaded
operation, a circular buffer pool at in-transit hosts: when the pool
is full an arriving in-transit packet is flushed, and "The GM software
has mechanisms to retransmit missing packets."

This example shows that whole story working end to end:

1. burst in-transit traffic through one transit host with fixed
   buffers — lossless, but the wormhole stalls on the wire;
2. the same burst with a small circular pool — the wire never stalls,
   excess packets are flushed;
3. the same flush scenario with the GM reliability layer on — every
   flushed packet is retransmitted and finally delivered.

Run:  python examples/buffer_pool_reliability.py
"""

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.core.timings import Timings
from repro.exp import Runner, get_experiment
from repro.harness.paths import fig6_paths
from repro.harness.report import format_table


def burst_comparison() -> None:
    spec = get_experiment("ablation-bufpool").default_spec()
    spec = spec.replace(params={**spec.params, "packets_per_sender": 25})
    results = Runner().run(spec).result.results
    print(format_table(
        ["scheme", "delivered", "offered", "flushed", "wire stall (us)"],
        [(r.kind, r.delivered, r.offered, r.flushed,
          r.recv_blocked_ns / 1000.0) for r in results],
        title="burst of in-transit packets through one transit host",
    ))


def recovery_demo() -> None:
    cfg = NetworkConfig(
        firmware="itb", routing="updown",
        reliable=True,                 # GM acks + retransmission ON
        recv_buffer_kind="pool",
        pool_bytes=600,                # tiny pool: guaranteed flushes
        timings=Timings().with_overrides(host_jitter_sigma_ns=0.0),
    )
    net = build_network("fig6", config=cfg)
    paths = fig6_paths(net.topo, net.roles)
    a, b = net.gm("host1"), net.gm("host2")
    got = []

    def receiver():
        while True:
            msg = yield b.receive()
            got.append(msg.tag)

    net.sim.process(receiver(), name="rx")
    n_messages = 4
    for i in range(n_messages):
        a.send(b.host, 512, tag=i, route=paths.itb5)
    net.sim.run(until=50_000_000)

    flushed = net.nic("itb").stats.packets_flushed
    print()
    print(format_table(
        ["quantity", "value"],
        [
            ("messages sent over the ITB path", n_messages),
            ("flushed at the transit host's pool", flushed),
            ("retransmissions by GM", a.retransmissions),
            ("messages finally delivered, in order",
             f"{sorted(got) == list(range(n_messages))}"),
        ],
        title="flush + GM retransmission recovery (paper Section 4)",
    ))


def main() -> None:
    burst_comparison()
    recovery_demo()


if __name__ == "__main__":
    main()
