"""One-shot validation: measure every paper claim and report.

``python -m repro validate`` runs the quick versions of EXP-F7,
EXP-F8, and EXP-F1, evaluates each claim from
:mod:`repro.harness.paper_claims` against the measured values, and
prints a single verdict table.  The throughput ratio claim (EXP-M1)
is optional because it costs minutes at the network size where the
paper's 2x shows up.  Every measurement runs through
``Runner().run`` (:mod:`repro.exp`), imported inside
:func:`validate_claims` so that importing this module loads neither
the runner nor ``multiprocessing``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.harness.fig1 import run_fig1
from repro.harness.paper_claims import claim
from repro.harness.report import format_table

__all__ = ["ValidationReport", "validate_claims"]


@dataclass
class ValidationReport:
    """Claim-by-claim verdicts."""

    entries: list = field(default_factory=list)  # (claim, measured, ok)

    def add(self, key: str, measured: float) -> None:
        """Judge one measured value against its paper claim."""
        c = claim(key)
        self.entries.append((c, measured, c.holds(measured)))

    @property
    def all_hold(self) -> bool:
        return all(ok for (_c, _m, ok) in self.entries)

    @property
    def n_checked(self) -> int:
        return len(self.entries)

    def render(self) -> str:
        """ASCII verdict table."""
        rows = [
            (c.key, f"{c.value:g} {c.unit}", f"{measured:g} {c.unit}",
             "yes" if ok else "NO")
            for (c, measured, ok) in self.entries
        ]
        return format_table(
            ["claim", "paper", "measured", "holds"],
            rows,
            title="paper-claim validation",
        )


def validate_claims(
    iterations: int = 20,
    sizes: tuple = (16, 128, 1024, 4096),
    include_throughput: bool = False,
) -> ValidationReport:
    """Measure and judge every quick-checkable claim.

    With ``include_throughput`` the EXP-M1 ratio is measured too, on
    the 64-switch network its 2x claim is about.
    """
    from repro.exp import Runner, get_experiment

    runner = Runner()
    fig7 = get_experiment("fig7").default_spec()
    fig8 = get_experiment("fig8").default_spec()
    report = ValidationReport()

    f7 = runner.run(fig7.replace(sizes=sizes, iterations=iterations)).result
    report.add("f7.mean_overhead_ns", f7.mean_overhead_ns)
    report.add("f7.max_overhead_ns", f7.max_overhead_ns)
    report.add("f7.relative_short_pct", f7.relative_short_pct)
    report.add("f7.relative_long_pct", f7.relative_long_pct)

    f8 = runner.run(fig8.replace(sizes=sizes, iterations=iterations)).result
    report.add("f8.overhead_ns", f8.mean_overhead_ns)
    report.add("f8.relative_short_pct", f8.relative_short_pct)
    report.add("f8.relative_long_pct", f8.relative_long_pct)

    # The [2,3]-assumption regime (ablation A3 reproduces their 0.5 us).
    from repro.core.timings import Timings

    t_assumed = Timings().with_overrides(
        itb_early_recv_cycles=18, itb_program_dma_cycles=13,
        host_jitter_sigma_ns=0.0,
    )
    f8_assumed = runner.run(fig8.replace(
        sizes=(64,), iterations=max(5, iterations // 4),
        timings=t_assumed)).result
    report.add("f8.prior_estimate_ns", f8_assumed.mean_overhead_ns)

    f1 = run_fig1()
    # Methodology claims checked structurally.
    report.add("method.early_recv_bytes", Timings().early_recv_bytes)
    report.add("method.mcp_buffers", Timings().mcp_buffers)
    from repro.harness.paths import fig6_paths
    from repro.topology.generators import fig6_testbed

    topo, roles = fig6_testbed()
    paths = fig6_paths(topo, roles)
    report.add("method.fig8_switch_crossings", paths.ud5.n_switches)
    report.add(
        "method.fig7_avg_crossings",
        (paths.fig7_fwd.n_switches + paths.rev2.n_switches) / 2,
    )
    # Figure 1's structural results ride along as a sanity gate.
    assert f1.updown_deadlock_free and f1.itb_deadlock_free
    assert not f1.minimal_deadlock_free

    if include_throughput:
        spec = get_experiment("throughput").default_spec().replace(
            n_switches=64, packet_size=512,
            rates=(0.02, 0.04, 0.08), duration_ns=250_000.0,
            warmup_ns=50_000.0, hosts_per_switch=2, topo_seed=5,
        )
        sweep = runner.run(spec).result
        report.add("m1.throughput_ratio_64sw", sweep.throughput_ratio)

    return report
