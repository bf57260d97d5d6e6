"""Benchmark: EXP-M2 — distributed-application completion time.

The paper's future-work promise ("analyzing the impact of using ITBs
in the execution time of distributed applications"), executed:
closed-loop communication kernels run to completion under up*/down*
vs ITB routing.
"""

from __future__ import annotations

from repro.exp import Runner, get_experiment
from repro.harness.report import format_table


def test_bench_apps(scale):
    n_switches = max(scale["throughput_switches"])
    spec = get_experiment("apps").default_spec().replace(
        n_switches=n_switches)
    results = Runner().run(spec).result.results

    by = {(r.kernel, r.routing): r for r in results}
    kernels = sorted({r.kernel for r in results})
    rows = []
    for kernel in kernels:
        ud = by[(kernel, "updown")]
        itb = by[(kernel, "itb")]
        rows.append((
            kernel, ud.completion_us, itb.completion_us,
            ud.completion_ns / itb.completion_ns,
        ))
    print()
    print(format_table(
        ["kernel", "up*/down* (us)", "ITB (us)", "speedup (UD/ITB)"],
        rows,
        title=("EXP-M2 — application completion time,"
               f" {n_switches}-switch irregular cluster"),
    ))

    # Shape (paper Section 1): "this latency penalty is only noticeable
    # for short packets and at low network loads" — so the lightly
    # loaded ring kernel may pay a modest ITB cost, while the heavy
    # all-to-all kernel must benefit from minimal routing + balance.
    a2a = (by[("all-to-all", "updown")].completion_ns
           / by[("all-to-all", "itb")].completion_ns)
    ring = (by[("ring", "updown")].completion_ns
            / by[("ring", "itb")].completion_ns)
    assert a2a >= 1.0, f"all-to-all should favour ITB (got {a2a:.2f})"
    assert ring > 0.7, f"ring penalty beyond the expected range ({ring:.2f})"
    assert a2a > ring, "heavy traffic should benefit more than light"
