"""Benchmark: EXP-A2 — fixed two-buffer queues vs the circular pool.

The paper keeps the stock two-buffer queues ("As we are going to
evaluate ITBs on an unloaded network, we do not need more buffers")
and *proposes* a circular buffer pool for loaded operation.  This
bench blasts bursts of in-transit traffic through one transit host
under both schemes and reports delivery, flushes, and wire stalls.
"""

from __future__ import annotations

from repro.exp import Runner, get_experiment
from repro.harness.report import format_table


def test_bench_ablation_bufpool():
    spec = get_experiment("ablation-bufpool").default_spec()
    spec = spec.replace(params={**spec.params, "packets_per_sender": 25})
    results = Runner().run(spec).result

    print()
    print(format_table(
        ["scheme", "delivered", "offered", "flushed",
         "wire stall (us)", "mean latency (us)"],
        [
            (r.kind, r.delivered, r.offered, r.flushed,
             r.recv_blocked_ns / 1000.0, r.mean_latency_ns / 1000.0)
            for r in results.results
        ],
        title=("EXP-A2 — in-transit buffering under burst load"
               " (fixed 2-buffer vs circular pool)"),
    ))

    fixed, pool = results.get("fixed"), results.get("pool")
    # Fixed buffers: lossless but stall the wire (wormhole backpressure).
    assert fixed.delivered == fixed.offered and fixed.flushed == 0
    assert fixed.recv_blocked_ns > 0
    # Pool: absorbs the burst, flushes the excess (GM retransmits it —
    # see tests/test_gm_host.py::TestReliability), never stalls.
    assert pool.flushed > 0
    assert pool.recv_blocked_ns == 0.0
