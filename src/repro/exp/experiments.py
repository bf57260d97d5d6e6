"""Built-in experiment definitions.

Each class below maps one of the repo's experiments onto the unified
pipeline: it declares the independent measurement points of a spec,
delegates each point to the picklable ``measure_*`` helper in its
harness module, and reassembles the ordered results into the same
result object the harness has always returned.  The CLI hooks declare
each experiment's ``repro run <name>`` options and report tables.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.exp.registry import CliOption, Experiment, register_experiment
from repro.exp.spec import ExperimentSpec

__all__ = [
    "AblationBufpoolExperiment",
    "AblationLoadExperiment",
    "AblationTimingExperiment",
    "AdaptiveItbExperiment",
    "AppsExperiment",
    "FaultCampaignExperiment",
    "Fig7Experiment",
    "Fig8Experiment",
    "QUICK_SIZES",
    "RootStudyExperiment",
    "ScaleStudyExperiment",
    "ThroughputExperiment",
    "VcStudyExperiment",
]

#: The abbreviated ladder the CLI uses without ``--full``.
QUICK_SIZES: tuple[int, ...] = (16, 128, 1024, 4096)


def _sizes_from_args(args: Any) -> tuple[int, ...]:
    from repro.harness.fig7 import DEFAULT_SIZES

    return DEFAULT_SIZES if args.full else QUICK_SIZES


_LADDER_OPTIONS = (
    CliOption.make("--full", action="store_true",
                   help="full gm_allsize size ladder"),
    CliOption.make("--iterations", type=int, default=20),
    CliOption.make("--plot", action="store_true",
                   help="ASCII chart of the series"),
)


@register_experiment("fig7", "Figure 7 code overhead")
class Fig7Experiment(Experiment):
    """Half-RTT ladder, original vs ITB-modified MCP (paper Fig. 7)."""

    cli_options = _LADDER_OPTIONS

    def default_spec(self) -> ExperimentSpec:
        from repro.harness.fig7 import DEFAULT_SIZES

        return ExperimentSpec(experiment="fig7", sizes=DEFAULT_SIZES)

    def points(self, spec: ExperimentSpec) -> list[dict]:
        return [{"size": size} for size in spec.sizes]

    def measure(self, spec: ExperimentSpec, point: dict, ctx: Any) -> Any:
        from repro.harness.fig7 import measure_fig7_point

        return measure_fig7_point(point["size"], spec.iterations,
                                  spec.timings, spec.seed, build=ctx.build)

    def summarize(self, spec: ExperimentSpec, results: Sequence[Any]) -> Any:
        from repro.harness.fig7 import Fig7Result

        return Fig7Result(rows=list(results), iterations=spec.iterations)

    def spec_from_args(self, args: Any) -> ExperimentSpec:
        return self.default_spec().replace(
            sizes=_sizes_from_args(args), iterations=args.iterations,
        )

    def render(self, spec: ExperimentSpec, result: Any, args: Any) -> str:
        from repro.harness.ascii_plot import line_plot
        from repro.harness.report import format_table

        out = [format_table(
            ["size (B)", "orig (us)", "modified (us)", "overhead (ns)",
             "rel (%)"],
            [(row.size, row.original_ns / 1000, row.modified_ns / 1000,
              row.overhead_ns, row.relative_pct) for row in result.rows],
            title="Figure 7 — overhead of the new GM/MCP code",
        )]
        if getattr(args, "plot", False):
            out.append("")
            out.append(line_plot(
                [row.size for row in result.rows],
                {"original": [row.original_ns / 1000 for row in result.rows],
                 "modified": [row.modified_ns / 1000 for row in result.rows]},
                title="half-RTT (us) vs message size (B)",
                logx=True, xlabel="size (log)",
            ))
        out.append(f"\navg overhead {result.mean_overhead_ns:.0f} ns"
                   f" (paper ~125 ns), max {result.max_overhead_ns:.0f} ns"
                   " (paper <= 300 ns)")
        return "\n".join(out)


@register_experiment("fig8", "Figure 8 per-ITB overhead")
class Fig8Experiment(Experiment):
    """Half-RTT ladder over the 5-switch paths, UD vs UD-ITB (Fig. 8)."""

    cli_options = _LADDER_OPTIONS

    def default_spec(self) -> ExperimentSpec:
        from repro.harness.fig7 import DEFAULT_SIZES

        return ExperimentSpec(experiment="fig8", sizes=DEFAULT_SIZES)

    def points(self, spec: ExperimentSpec) -> list[dict]:
        return [{"size": size} for size in spec.sizes]

    def measure(self, spec: ExperimentSpec, point: dict, ctx: Any) -> Any:
        from repro.harness.fig8 import measure_fig8_point

        return measure_fig8_point(point["size"], spec.iterations,
                                  spec.timings, spec.seed, build=ctx.build)

    def summarize(self, spec: ExperimentSpec, results: Sequence[Any]) -> Any:
        from repro.harness.fig8 import Fig8Result

        return Fig8Result(rows=list(results), iterations=spec.iterations)

    def spec_from_args(self, args: Any) -> ExperimentSpec:
        return self.default_spec().replace(
            sizes=_sizes_from_args(args), iterations=args.iterations,
        )

    def render(self, spec: ExperimentSpec, result: Any, args: Any) -> str:
        from repro.harness.ascii_plot import line_plot
        from repro.harness.report import format_table

        out = [format_table(
            ["size (B)", "UD (us)", "UD-ITB (us)", "overhead (us)",
             "rel (%)"],
            [(row.size, row.ud_ns / 1000, row.ud_itb_ns / 1000,
              row.overhead_ns / 1000, row.relative_pct)
             for row in result.rows],
            title="Figure 8 — per-ITB overhead",
        )]
        if getattr(args, "plot", False):
            out.append("")
            out.append(line_plot(
                [row.size for row in result.rows],
                {"UD": [row.ud_ns / 1000 for row in result.rows],
                 "UD-ITB": [row.ud_itb_ns / 1000 for row in result.rows]},
                title="half-RTT (us) vs message size (B)",
                logx=True, xlabel="size (log)",
            ))
        out.append(f"\nper-ITB overhead {result.mean_overhead_ns / 1000:.2f}"
                   " us (paper ~1.3 us)")
        return "\n".join(out)


@register_experiment("throughput", "EXP-M1 load sweep")
class ThroughputExperiment(Experiment):
    """Accepted throughput / latency vs offered load, UD vs ITB routing.

    Sweeps offered load under both routings on one random topology.
    ``rates`` are offered loads in bytes/ns/host (link capacity is
    0.16 bytes/ns); a fresh network is built per point, so points are
    independent.  ``params["pattern_factory"](hosts)`` may supply a
    non-uniform destination pattern (a callable in ``spec.params``
    makes the spec unpersistable, and it fans out only if picklable).
    """

    cli_options = (
        CliOption.make("--switches", type=int, default=16),
        CliOption.make("--packet-size", type=int, default=512),
        CliOption.make("--rates", type=float, nargs="+",
                       default=[0.02, 0.06, 0.12]),
        CliOption.make("--duration", type=float, default=150.0,
                       help="measurement window (us)"),
        CliOption.make("--hosts-per-switch", type=int, default=2),
        CliOption.make("--seed", type=int, default=5),
    )

    def default_spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            experiment="throughput",
            rates=(0.005, 0.01, 0.02, 0.04, 0.06, 0.08, 0.10),
        )

    def points(self, spec: ExperimentSpec) -> list[dict]:
        return [{"routing": routing, "rate": rate}
                for routing in spec.routings for rate in spec.rates]

    def measure(self, spec: ExperimentSpec, point: dict, ctx: Any) -> Any:
        from repro.harness.throughput import (ThroughputPoint,
                                              measure_load_point)

        stats = measure_load_point(
            routing=point["routing"],
            rate=point["rate"],
            n_switches=spec.n_switches,
            packet_size=spec.packet_size,
            duration_ns=spec.duration_ns,
            warmup_ns=spec.warmup_ns,
            topo_seed=spec.topo_seed,
            traffic_seed=spec.traffic_seed,
            hosts_per_switch=spec.hosts_per_switch,
            pattern_factory=spec.params.get("pattern_factory"),
            timings=spec.timings,
            build=ctx.build,
        )
        return ThroughputPoint(
            routing=point["routing"],
            offered_bytes_per_ns_per_host=point["rate"],
            stats=stats,
        )

    def summarize(self, spec: ExperimentSpec, results: Sequence[Any]) -> Any:
        from repro.harness.throughput import ThroughputResult

        return ThroughputResult(
            n_switches=spec.n_switches, packet_size=spec.packet_size,
            seed=spec.topo_seed, points=list(results),
        )

    def spec_from_args(self, args: Any) -> ExperimentSpec:
        return self.default_spec().replace(
            n_switches=args.switches,
            packet_size=args.packet_size,
            rates=tuple(args.rates),
            duration_ns=args.duration * 1000.0,
            warmup_ns=args.duration * 200.0,
            hosts_per_switch=args.hosts_per_switch,
            topo_seed=args.seed,
        )

    def render(self, spec: ExperimentSpec, result: Any, args: Any) -> str:
        from repro.harness.report import format_table

        rows = []
        for routing in ("updown", "itb"):
            for p in result.series(routing):
                rows.append((routing, p.offered_bytes_per_ns_per_host,
                             p.accepted, p.mean_latency_ns / 1000))
        table = format_table(
            ["routing", "offered", "accepted", "latency (us)"],
            rows,
            title=f"EXP-M1 — {spec.n_switches} switches",
            float_fmt="{:.4f}",
        )
        return (f"{table}\n\npeak ratio ITB/UD:"
                f" {result.throughput_ratio:.2f}x")


@register_experiment("vc-study", "EXP-VC ITB vs virtual channels")
class VcStudyExperiment(Experiment):
    """ITB vs VC lanes vs both, on latency/throughput/deadlock-freedom.

    The head-to-head the paper motivates but never runs: its Section 1
    rejects virtual channels as requiring new switch hardware, so ITBs
    were evaluated only against up*/down*.  Arms and the modelling
    caveats are documented in :mod:`repro.harness.vcstudy`; the
    ``minimal`` arm is statically deadlocked on the study topology and
    therefore contributes a CDG verdict but no traffic run.
    """

    cli_options = (
        CliOption.make("--switches", type=int, default=8),
        CliOption.make("--packet-size", type=int, default=512),
        CliOption.make("--rates", type=float, nargs="+",
                       default=[0.04, 0.08, 0.12]),
        CliOption.make("--duration", type=float, default=150.0,
                       help="measurement window (us)"),
        CliOption.make("--hosts-per-switch", type=int, default=2),
        CliOption.make("--seed", type=int, default=5,
                       help="topology seed (default deadlocks minimal"
                            " routing at one lane)"),
        CliOption.make("--combined-lanes", type=int, default=2,
                       help="lanes of the itb+vc arm"),
        CliOption.make("--quick", action="store_true",
                       help="single rate, short window (CI smoke)"),
    )

    def default_spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            experiment="vc-study", n_switches=8, topo_seed=5,
            hosts_per_switch=2, packet_size=512,
            rates=(0.04, 0.08, 0.12),
            duration_ns=150_000.0, warmup_ns=30_000.0,
            params={"combined_lanes": 2},
        )

    def _topology(self, spec: ExperimentSpec):
        from repro.harness.vcstudy import study_topology

        return study_topology(spec.n_switches, spec.topo_seed,
                              spec.hosts_per_switch)

    def _arms(self, spec: ExperimentSpec, topo, vc_lanes=None):
        from repro.harness.vcstudy import study_arms

        return study_arms(
            topo, vc_lanes=vc_lanes,
            combined_lanes=int(spec.params["combined_lanes"]),
        )

    def points(self, spec: ExperimentSpec) -> list[dict]:
        arms = self._arms(spec, self._topology(spec))
        return [
            {"mechanism": arm.mechanism, "routing": arm.routing,
             "lanes": arm.lanes, "lane_policy": arm.lane_policy,
             "rate": rate}
            for arm in arms if arm.dynamic
            for rate in spec.rates
        ]

    def measure(self, spec: ExperimentSpec, point: dict, ctx: Any) -> Any:
        from repro.harness.vcstudy import measure_vc_point

        sample = measure_vc_point(
            routing=point["routing"],
            lanes=point["lanes"],
            lane_policy=point["lane_policy"],
            rate=point["rate"],
            n_switches=spec.n_switches,
            packet_size=spec.packet_size,
            duration_ns=spec.duration_ns,
            warmup_ns=spec.warmup_ns,
            topo_seed=spec.topo_seed,
            traffic_seed=spec.traffic_seed,
            hosts_per_switch=spec.hosts_per_switch,
            timings=spec.timings,
            build=ctx.build,
        )
        return (point["mechanism"], sample)

    def summarize(self, spec: ExperimentSpec, results: Sequence[Any]) -> Any:
        from repro.harness.vcstudy import (VcMechanismResult, VcStudyResult,
                                           study_routes)
        from repro.routing.cdg import is_deadlock_free, lanes_required

        # One all-pairs build and one lane-demand walk per routing: the
        # VC arm is sized from the minimal set's demand, and each arm's
        # CDG verdict is taken on its routing's set with its own lanes.
        topo = self._topology(spec)
        routes = study_routes(topo)
        required = {routing: lanes_required(topo, routing_routes)
                    for routing, routing_routes in routes.items()}
        arms = self._arms(spec, topo, vc_lanes=required["minimal"])
        rows = []
        for arm in arms:
            rows.append(VcMechanismResult(
                mechanism=arm.mechanism, routing=arm.routing,
                lanes=arm.lanes, lane_policy=arm.lane_policy,
                deadlock_free=is_deadlock_free(
                    topo, routes[arm.routing], n_lanes=arm.lanes,
                    lane_policy=arm.lane_policy),
                lanes_required=required[arm.routing],
                points=[s for mech, s in results
                        if mech == arm.mechanism],
            ))
        return VcStudyResult(
            n_switches=spec.n_switches,
            hosts_per_switch=spec.hosts_per_switch,
            packet_size=spec.packet_size,
            topo_seed=spec.topo_seed,
            rows=rows,
        )

    def spec_from_args(self, args: Any) -> ExperimentSpec:
        spec = self.default_spec().replace(
            n_switches=args.switches,
            packet_size=args.packet_size,
            rates=tuple(args.rates),
            duration_ns=args.duration * 1000.0,
            warmup_ns=args.duration * 200.0,
            hosts_per_switch=args.hosts_per_switch,
            topo_seed=args.seed,
            params={"combined_lanes": args.combined_lanes},
        )
        if args.quick:
            # One saturating rate, short window: every arm is past its
            # knee, so the ITB+VC ordering survives the abbreviation.
            spec = spec.replace(rates=(0.12,), duration_ns=60_000.0,
                                warmup_ns=12_000.0)
        return spec

    def render(self, spec: ExperimentSpec, result: Any, args: Any) -> str:
        from repro.harness.report import format_table

        rows = []
        for r in result.rows:
            static_only = not r.points
            rows.append((
                r.mechanism, r.routing, r.lanes, r.lane_policy,
                "yes" if r.deadlock_free else "NO",
                "-" if static_only else f"{r.peak_accepted:.4f}",
                "-" if static_only
                else f"{r.best_mean_latency_ns / 1000:.2f}",
            ))
        table = format_table(
            ["mechanism", "routing", "lanes", "policy", "deadlock-free",
             "peak accepted", "latency (us)"],
            rows,
            title=f"EXP-VC — ITB vs virtual channels,"
                  f" {spec.n_switches} switches",
        )
        verdict = ("ITB+VC out-peaks both ITB alone and VC alone"
                   if result.combined_wins_throughput else
                   "ITB+VC does not dominate on this configuration")
        return (f"{table}\n\n{verdict}; VC lanes sized by escape-walk"
                f" demand ({result.row('vc').lanes} lanes), VC numbers"
                " are a full-rate-per-lane upper bound")


@register_experiment("apps", "EXP-M2 application kernels")
class AppsExperiment(Experiment):
    """Closed-loop kernel completion time, UD vs ITB routing: every
    kernel runs under both routings on the same topology."""

    cli_options = (
        CliOption.make("--switches", type=int, default=16),
        CliOption.make("--iterations", type=int, default=3),
        CliOption.make("--packet-size", type=int, default=1024),
        CliOption.make("--hosts-per-switch", type=int, default=2),
        CliOption.make("--seed", type=int, default=11),
    )

    def default_spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            experiment="apps",
            kernels=("all-to-all", "ring", "random-pairs"),
            iterations=3,
            message_size=1024,
            hosts_per_switch=2,
            seed=13,
        )

    def points(self, spec: ExperimentSpec) -> list[dict]:
        return [{"kernel": kernel, "routing": routing}
                for kernel in spec.kernels
                for routing in ("updown", "itb")]

    def measure(self, spec: ExperimentSpec, point: dict, ctx: Any) -> Any:
        from repro.harness.apps import measure_app_point

        return measure_app_point(
            kernel=point["kernel"],
            routing=point["routing"],
            n_switches=spec.n_switches,
            iterations=spec.iterations,
            message_size=spec.message_size,
            hosts_per_switch=spec.hosts_per_switch,
            topo_seed=spec.topo_seed,
            seed=spec.seed,
            build=ctx.build,
        )

    def summarize(self, spec: ExperimentSpec, results: Sequence[Any]) -> Any:
        from repro.harness.apps import AppsResult

        return AppsResult(results=list(results))

    def spec_from_args(self, args: Any) -> ExperimentSpec:
        return self.default_spec().replace(
            n_switches=args.switches,
            iterations=args.iterations,
            message_size=args.packet_size,
            hosts_per_switch=args.hosts_per_switch,
            topo_seed=args.seed,
        )

    def render(self, spec: ExperimentSpec, result: Any, args: Any) -> str:
        from repro.harness.report import format_table

        return format_table(
            ["kernel", "UD (us)", "ITB (us)", "speedup"],
            [(k, result.get(k, "updown").completion_us,
              result.get(k, "itb").completion_us,
              result.speedup(k)) for k in result.kernels()],
            title="EXP-M2 — application kernels,"
                  f" {spec.n_switches} switches",
        )


@register_experiment("root-study", "spanning-tree root sensitivity")
class RootStudyExperiment(Experiment):
    """Route quality under optimal vs anti-optimal BFS roots (EXP-A5).

    ``params["roots"]`` lists ``[label, which]`` placements; ``which``
    is ``"choose"`` (the mapper's min-eccentricity policy), ``"worst"``
    (max-eccentricity) or an integer switch id as a string.
    """

    cli_options = (
        CliOption.make("--switches", type=int, default=16),
        CliOption.make("--seed", type=int, default=33),
        CliOption.make("--hosts-per-switch", type=int, default=1),
        CliOption.make("--switch-links", type=int, default=3),
    )

    def default_spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            experiment="root-study", topo_seed=33,
            params={"roots": [["optimal", "choose"],
                              ["anti-optimal", "worst"]]},
        )

    def points(self, spec: ExperimentSpec) -> list[dict]:
        return [{"label": label, "which": which}
                for label, which in spec.params["roots"]]

    def measure(self, spec: ExperimentSpec, point: dict, ctx: Any) -> Any:
        from repro.harness.root_study import measure_root_point

        return measure_root_point(
            label=point["label"],
            which=point["which"],
            n_switches=spec.n_switches,
            topo_seed=spec.topo_seed,
            hosts_per_switch=spec.hosts_per_switch,
            switch_links=spec.switch_links,
        )

    def summarize(self, spec: ExperimentSpec, results: Sequence[Any]) -> Any:
        from repro.harness.root_study import RootStudyResult

        return RootStudyResult(rows=list(results))

    def spec_from_args(self, args: Any) -> ExperimentSpec:
        return self.default_spec().replace(
            n_switches=args.switches,
            topo_seed=args.seed,
            hosts_per_switch=args.hosts_per_switch,
            switch_links=args.switch_links,
        )

    def render(self, spec: ExperimentSpec, result: Any, args: Any) -> str:
        from repro.harness.report import format_table

        return format_table(
            ["root", "avg UD hops", "avg ITB hops", "avg minimal",
             "UD stretch", "ITB pairs"],
            [(f"{row.root_label} (sw {row.root})", row.avg_updown_hops,
              row.avg_itb_hops, row.avg_minimal_hops, row.updown_stretch,
              f"{row.pairs_with_itbs}/{row.n_pairs}")
             for row in result.rows],
            title=f"EXP-A5 — root placement, {spec.n_switches} switches",
        )


@register_experiment("ablation-load", "marginal ITB overhead under load")
class AblationLoadExperiment(Experiment):
    """Per-ITB overhead with a busy re-injection port (EXP-A1).

    Compares the unloaded Figure 8 overhead with the overhead measured
    while the in-transit host sends a background packet every
    ``params["background_gap_ns"]`` (see
    :func:`~repro.harness.ablations.measure_loaded_half_rtt`), both at
    message size ``sizes[0]``.
    """

    cli_options = (
        CliOption.make("--size", type=int, default=256),
        CliOption.make("--iterations", type=int, default=40),
        CliOption.make("--background-gap", type=float, default=9_000.0,
                       help="background inter-packet gap (ns)"),
    )

    def default_spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            experiment="ablation-load", sizes=(256,), iterations=40,
            params={"background_gap_ns": 9_000.0},
        )

    def points(self, spec: ExperimentSpec) -> list[dict]:
        return [{"mode": "unloaded"},
                {"mode": "loaded", "route": "ud5"},
                {"mode": "loaded", "route": "itb5"}]

    def measure(self, spec: ExperimentSpec, point: dict, ctx: Any) -> Any:
        from repro.harness.ablations import measure_loaded_half_rtt
        from repro.harness.fig8 import measure_fig8_point

        size = spec.sizes[0]
        if point["mode"] == "unloaded":
            return measure_fig8_point(size, spec.iterations, spec.timings,
                                      spec.seed, build=ctx.build)
        return measure_loaded_half_rtt(
            point["route"], size, spec.iterations,
            spec.params["background_gap_ns"], spec.seed, build=ctx.build,
        )

    def summarize(self, spec: ExperimentSpec, results: Sequence[Any]) -> Any:
        from repro.harness.ablations import AblationLoadResult

        unloaded_row, ud, ud_itb = results
        return AblationLoadResult(
            size=spec.sizes[0],
            overhead_unloaded_ns=unloaded_row.overhead_ns,
            overhead_loaded_ns=2.0 * (ud_itb - ud),
        )

    def spec_from_args(self, args: Any) -> ExperimentSpec:
        return self.default_spec().replace(
            sizes=(args.size,), iterations=args.iterations,
            params={"background_gap_ns": args.background_gap},
        )

    def render(self, spec: ExperimentSpec, result: Any, args: Any) -> str:
        from repro.harness.report import format_table

        return format_table(
            ["quantity", "value"],
            [
                ("message size (B)", result.size),
                ("overhead unloaded (ns)",
                 f"{result.overhead_unloaded_ns:.0f}"),
                ("overhead loaded (ns)",
                 f"{result.overhead_loaded_ns:.0f}"),
                ("marginal fraction",
                 f"{result.marginal_fraction:.2f}"),
            ],
            title="EXP-A1 — marginal ITB overhead under load",
        )


@register_experiment("ablation-bufpool",
                     "fixed buffers vs circular buffer pool")
class AblationBufpoolExperiment(Experiment):
    """Burst behaviour of the in-transit buffering schemes (EXP-A2):
    the same burst through fixed buffers, then through a pool (the
    star topology is described at
    :func:`~repro.harness.ablations.measure_buffer_scheme`)."""

    cli_options = (
        CliOption.make("--senders", type=int, default=4),
        CliOption.make("--packets-per-sender", type=int, default=30),
        CliOption.make("--packet-size", type=int, default=1024),
        CliOption.make("--pool-bytes", type=int, default=8 * 1024),
    )

    def default_spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            experiment="ablation-bufpool", packet_size=1024,
            params={"n_senders": 4, "packets_per_sender": 30,
                    "pool_bytes": 8 * 1024},
        )

    def points(self, spec: ExperimentSpec) -> list[dict]:
        return [{"kind": "fixed"}, {"kind": "pool"}]

    def measure(self, spec: ExperimentSpec, point: dict, ctx: Any) -> Any:
        from repro.harness.ablations import measure_buffer_scheme

        return measure_buffer_scheme(
            kind=point["kind"],
            n_senders=spec.params["n_senders"],
            packets_per_sender=spec.params["packets_per_sender"],
            packet_size=spec.packet_size,
            pool_bytes=spec.params["pool_bytes"],
            seed=spec.seed,
            build=ctx.build,
        )

    def summarize(self, spec: ExperimentSpec, results: Sequence[Any]) -> Any:
        from repro.harness.ablations import BufferPoolStudyResult

        return BufferPoolStudyResult(results=list(results))

    def spec_from_args(self, args: Any) -> ExperimentSpec:
        return self.default_spec().replace(
            packet_size=args.packet_size,
            params={"n_senders": args.senders,
                    "packets_per_sender": args.packets_per_sender,
                    "pool_bytes": args.pool_bytes},
        )

    def render(self, spec: ExperimentSpec, result: Any, args: Any) -> str:
        from repro.harness.report import format_table

        return format_table(
            ["scheme", "delivered", "offered", "flushed",
             "recv blocked (us)", "mean latency (us)"],
            [(r.kind, r.delivered, r.offered, r.flushed,
              r.recv_blocked_ns / 1000, r.mean_latency_ns / 1000)
             for r in result.results],
            title="EXP-A2 — in-transit buffering schemes",
        )


@register_experiment("ablation-timing", "ITB firmware cost sweep")
class AblationTimingExperiment(Experiment):
    """Per-ITB overhead across firmware cost regimes (EXP-A3)."""

    cli_options = (
        CliOption.make("--size", type=int, default=64),
        CliOption.make("--iterations", type=int, default=30),
    )

    def default_spec(self) -> ExperimentSpec:
        from repro.core.timings import Timings

        base = Timings()
        return ExperimentSpec(
            experiment="ablation-timing", sizes=(64,), iterations=30,
            params={"regimes": [
                # [2,3] assumed 275 ns detect + 200 ns DMA program.
                ["simulation-assumption [2,3]", 18, 13],
                # This paper's measured implementation (~1.3 us).
                ["gm-implementation (paper)", base.itb_early_recv_cycles,
                 base.itb_program_dma_cycles],
                # A hypothetical hardware-assisted detection.
                ["hardware-assisted", 6, 6],
            ]},
        )

    def points(self, spec: ExperimentSpec) -> list[dict]:
        return [{"label": label, "early": int(early), "prog": int(prog)}
                for label, early, prog in spec.params["regimes"]]

    def measure(self, spec: ExperimentSpec, point: dict, ctx: Any) -> Any:
        from repro.harness.ablations import measure_timing_regime

        return measure_timing_regime(
            label=point["label"], early=point["early"], prog=point["prog"],
            size=spec.sizes[0], iterations=spec.iterations, seed=spec.seed,
            build=ctx.build,
        )

    def summarize(self, spec: ExperimentSpec, results: Sequence[Any]) -> Any:
        from repro.harness.ablations import TimingSweepResult

        return TimingSweepResult(rows=list(results))

    def spec_from_args(self, args: Any) -> ExperimentSpec:
        return self.default_spec().replace(
            sizes=(args.size,), iterations=args.iterations,
        )

    def render(self, spec: ExperimentSpec, result: Any, args: Any) -> str:
        from repro.harness.report import format_table

        return format_table(
            ["regime", "detect cyc", "DMA cyc", "fw cost (ns)",
             "overhead (us)"],
            [(row.label, row.early_recv_cycles, row.program_dma_cycles,
              f"{row.firmware_cost_ns:.0f}",
              row.overhead_ns / 1000) for row in result.rows],
            title="EXP-A3 — firmware cost sweep",
        )


@register_experiment("fault-campaign", "GM reliability under injected faults")
class FaultCampaignExperiment(Experiment):
    """Loss/corruption grid x dynamic-fault schedules (EXP-FC).

    Every point runs the bidirectional staggered workload of
    :mod:`repro.harness.faultcamp` on the Figure 6 testbed and
    accounts for every message: delivered in order, or failed
    gracefully with ``GmSendError`` — never silently lost.
    """

    cli_options = (
        CliOption.make("--loss", type=float, nargs="+",
                       default=[0.0, 0.02, 0.05],
                       help="packet loss probabilities to sweep"),
        CliOption.make("--corrupt", type=float, nargs="+",
                       default=[0.0, 0.02],
                       help="packet corruption probabilities to sweep"),
        CliOption.make("--schedules", nargs="+",
                       default=["none", "campaign"],
                       help="named dynamic-fault schedules to sweep"),
        CliOption.make("--messages", type=int, default=24,
                       help="messages per direction per point"),
        CliOption.make("--size", type=int, default=1024,
                       help="message size (bytes)"),
        CliOption.make("--seed", type=int, default=13),
    )

    def default_spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            experiment="fault-campaign", routing="itb", seed=13,
            message_size=1024,
            params={
                "loss": [0.0, 0.02, 0.05],
                "corrupt": [0.0, 0.02],
                "schedules": ["none", "campaign"],
                "messages": 24,
            },
        )

    def points(self, spec: ExperimentSpec) -> list[dict]:
        p = spec.params
        return [
            {"loss": loss, "corrupt": corrupt, "schedule": schedule}
            for schedule in p["schedules"]
            for loss in p["loss"]
            for corrupt in p["corrupt"]
        ]

    def measure(self, spec: ExperimentSpec, point: dict, ctx: Any) -> Any:
        from repro.harness.faultcamp import measure_fault_point

        return measure_fault_point(
            loss=point["loss"], corrupt=point["corrupt"],
            schedule=point["schedule"],
            n_messages=int(spec.params["messages"]),
            message_size=spec.message_size,
            seed=spec.seed, timings=spec.timings, build=ctx.build,
        )

    def summarize(self, spec: ExperimentSpec, results: Sequence[Any]) -> Any:
        from repro.harness.faultcamp import FaultCampaignResult

        return FaultCampaignResult(
            rows=list(results),
            n_messages=int(spec.params["messages"]),
            message_size=spec.message_size,
        )

    def spec_from_args(self, args: Any) -> ExperimentSpec:
        return self.default_spec().replace(
            seed=args.seed, message_size=args.size,
            params={
                "loss": [float(x) for x in args.loss],
                "corrupt": [float(x) for x in args.corrupt],
                "schedules": list(args.schedules),
                "messages": args.messages,
            },
        )

    def render(self, spec: ExperimentSpec, result: Any, args: Any) -> str:
        from repro.harness.report import format_table

        out = [format_table(
            ["schedule", "loss", "corrupt", "msgs", "ok", "failed",
             "retx", "timeouts", "cut", "remaps"],
            [(row.schedule, f"{row.loss:.2f}", f"{row.corrupt:.2f}",
              row.messages, row.completed, row.failed,
              row.retransmissions, row.timeouts, row.killed_in_flight,
              row.remap_events) for row in result.rows],
            title="EXP-FC — reliability under injected faults",
        )]
        verdict = ("every message accounted for"
                   if result.all_accounted else
                   "MESSAGES UNACCOUNTED FOR — reliability breach")
        out.append(f"\n{result.total_retransmissions} retransmissions; "
                   f"{verdict}")
        return "\n".join(out)


@register_experiment("scale-study", "EXP-SCALE 16->512 switch fabric sweep")
class ScaleStudyExperiment(Experiment):
    """ITB vs up*/down* across Clos, fat-tree, and irregular fabrics.

    Static route-quality metrics from full batched all-pairs builds at
    every size rung (the tentpole of the batched route construction),
    plus one simulated offered-load point on fabrics small enough to
    drive through the event simulator.  Methodology and findings are
    documented in :mod:`repro.harness.scale_study` and
    ``docs/SCALE_STUDY.md``.
    """

    cli_options = (
        CliOption.make("--targets", type=int, nargs="+",
                       default=[16, 32, 64, 128, 256, 512],
                       help="switch-count rungs of the sweep"),
        CliOption.make("--families", nargs="+",
                       default=["clos", "fattree", "irregular"],
                       choices=["clos", "fattree", "irregular"]),
        CliOption.make("--dynamic-max", type=int, default=64,
                       help="largest rung that also gets a simulated"
                            " traffic point"),
        CliOption.make("--rate", type=float, default=0.08,
                       help="offered load of the dynamic point"
                            " (bytes/ns/host)"),
        CliOption.make("--duration", type=float, default=120.0,
                       help="dynamic measurement window (us)"),
        CliOption.make("--seed", type=int, default=11,
                       help="irregular-family topology seed"),
        CliOption.make("--quick", action="store_true",
                       help="rungs <= 64, dynamic <= 32 (CI smoke)"),
    )

    def default_spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            experiment="scale-study",
            topology="scale",
            topo_seed=11,
            routings=("updown", "itb"),
            packet_size=512,
            duration_ns=120_000.0,
            warmup_ns=24_000.0,
            params={
                "targets": [16, 32, 64, 128, 256, 512],
                "families": ["clos", "fattree", "irregular"],
                "dynamic_max": 64,
                "rate": 0.08,
            },
        )

    def points(self, spec: ExperimentSpec) -> list[dict]:
        return [
            {"family": family, "target": target, "routing": routing}
            for family in spec.params["families"]
            for target in spec.params["targets"]
            for routing in spec.routings
        ]

    def measure(self, spec: ExperimentSpec, point: dict, ctx: Any) -> Any:
        from repro.harness.scale_study import measure_scale_point

        return measure_scale_point(
            family=point["family"],
            target=point["target"],
            routing=point["routing"],
            topo_seed=spec.topo_seed,
            rate=float(spec.params["rate"]),
            dynamic_max=int(spec.params["dynamic_max"]),
            packet_size=spec.packet_size,
            duration_ns=spec.duration_ns,
            warmup_ns=spec.warmup_ns,
            traffic_seed=spec.traffic_seed,
            timings=spec.timings,
            build=ctx.build,
        )

    def summarize(self, spec: ExperimentSpec, results: Sequence[Any]) -> Any:
        from repro.harness.scale_study import ScaleStudyResult

        return ScaleStudyResult(
            families=tuple(spec.params["families"]),
            targets=tuple(spec.params["targets"]),
            routings=tuple(spec.routings),
            topo_seed=spec.topo_seed,
            rows=list(results),
        )

    def spec_from_args(self, args: Any) -> ExperimentSpec:
        spec = self.default_spec().replace(
            topo_seed=args.seed,
            duration_ns=args.duration * 1000.0,
            warmup_ns=args.duration * 200.0,
            params={
                "targets": [int(t) for t in args.targets],
                "families": list(args.families),
                "dynamic_max": args.dynamic_max,
                "rate": args.rate,
            },
        )
        if args.quick:
            params = dict(spec.params)
            params["targets"] = [t for t in params["targets"] if t <= 64]
            params["dynamic_max"] = min(params["dynamic_max"], 32)
            spec = spec.replace(params=params, duration_ns=60_000.0,
                                warmup_ns=12_000.0)
        return spec

    def render(self, spec: ExperimentSpec, result: Any, args: Any) -> str:
        from repro.harness.report import format_table

        rows = []
        for r in result.rows:
            rows.append((
                r.family, r.n_switches, r.n_hosts, r.diameter, r.routing,
                f"{100 * r.minimal_coverage:.1f}%",
                f"{r.avg_stretch:.3f}",
                f"{100 * r.root_load_fraction:.1f}%",
                r.max_channel_load,
                f"{r.saturation_bytes_per_ns_per_host:.4f}",
                f"{100 * r.itb_pairs_fraction:.1f}%" if r.routing == "itb"
                else "-",
                f"{r.dynamic.accepted:.4f}" if r.dynamic else "-",
                f"{r.route_s:.2f}",
            ))
        table = format_table(
            ["family", "sw", "hosts", "diam", "routing", "minimal",
             "stretch", "via-root", "max-load", "sat-bound", "itb-pairs",
             "accepted", "route-s"],
            rows,
            title="EXP-SCALE — ITB vs up*/down*, 16->512 switches",
        )
        notes = []
        for family in result.families:
            biggest = max(
                (r.target for r in result.rows if r.family == family),
                default=None,
            )
            if biggest is None:
                continue
            ratio = result.saturation_ratio(family, biggest)
            notes.append(f"{family}@{biggest}: ITB/UD saturation"
                         f" ratio {ratio:.2f}x")
        return (f"{table}\n\n{'; '.join(notes)}\n"
                "sat-bound = analytic uniform-traffic saturation"
                " (bytes/ns/host); route-s = batched all-pairs wall time")


@register_experiment("adaptive-itb",
                     "EXP-A7 static vs adaptive ITB host selection")
class AdaptiveItbExperiment(Experiment):
    """Static vs congestion-aware in-transit host selection.

    Sweeps every :data:`~repro.routing.selectors.SELECTOR_NAMES` policy
    against the static baseline under hotspot and shifting traffic on
    the irregular study fabrics; the harness details (matrices, the
    busiest-default-ITB-host hotspot, the live occupancy view) live in
    :mod:`repro.harness.adaptive`.
    """

    cli_options = (
        CliOption.make("--switches", type=int, nargs="+", default=[8, 32]),
        CliOption.make("--packet-size", type=int, default=512),
        CliOption.make("--rate", type=float, default=0.06,
                       help="offered load (bytes/ns/host)"),
        CliOption.make("--duration", type=float, default=120.0,
                       help="measurement window (us)"),
        CliOption.make("--hosts-per-switch", type=int, default=2),
        CliOption.make("--seed", type=int, default=11),
        CliOption.make("--policies", nargs="+", default=None,
                       help="selector policies (default: all)"),
        CliOption.make("--matrices", nargs="+",
                       default=["hotspot", "shifting"]),
        CliOption.make("--fraction", type=float, default=0.35,
                       help="hotspot traffic fraction"),
        CliOption.make("--interval", type=float, default=10.0,
                       help="reselection interval (us)"),
        CliOption.make("--view", choices=("live", "zero"), default="live",
                       help="congestion signal (zero = oracle arm)"),
        CliOption.make("--quick", action="store_true",
                       help="8 switches only, short window (CI smoke)"),
    )

    def default_spec(self) -> ExperimentSpec:
        from repro.routing.selectors import SELECTOR_NAMES

        return ExperimentSpec(
            experiment="adaptive-itb", n_switches=8, topo_seed=11,
            hosts_per_switch=2, packet_size=512, rates=(0.06,),
            duration_ns=120_000.0, warmup_ns=30_000.0,
            params={
                "switch_list": (8, 32),
                "policies": tuple(SELECTOR_NAMES),
                "matrices": ("hotspot", "shifting"),
                "fraction": 0.35,
                "interval_ns": 10_000.0,
                "shift_period_ns": 40_000.0,
                "view": "live",
                "selector_seed": 2001,
            },
        )

    def points(self, spec: ExperimentSpec) -> list[dict]:
        return [
            {"policy": policy, "matrix": matrix,
             "n_switches": n, "rate": rate}
            for n in spec.params["switch_list"]
            for matrix in spec.params["matrices"]
            for policy in spec.params["policies"]
            for rate in spec.rates
        ]

    def measure(self, spec: ExperimentSpec, point: dict, ctx: Any) -> Any:
        from repro.harness.adaptive import measure_adaptive_point

        return measure_adaptive_point(
            policy=point["policy"],
            matrix=point["matrix"],
            rate=point["rate"],
            n_switches=point["n_switches"],
            packet_size=spec.packet_size,
            duration_ns=spec.duration_ns,
            warmup_ns=spec.warmup_ns,
            topo_seed=spec.topo_seed,
            traffic_seed=spec.traffic_seed,
            hosts_per_switch=spec.hosts_per_switch,
            fraction=float(spec.params["fraction"]),
            interval_ns=float(spec.params["interval_ns"]),
            shift_period_ns=float(spec.params["shift_period_ns"]),
            view=spec.params["view"],
            selector_seed=int(spec.params["selector_seed"]),
            timings=spec.timings,
            build=ctx.build,
        )

    def summarize(self, spec: ExperimentSpec, results: Sequence[Any]) -> Any:
        from repro.harness.adaptive import AdaptiveItbResult

        return AdaptiveItbResult(
            packet_size=spec.packet_size,
            topo_seed=spec.topo_seed,
            hosts_per_switch=spec.hosts_per_switch,
            rows=list(results),
        )

    def spec_from_args(self, args: Any) -> ExperimentSpec:
        from repro.routing.selectors import SELECTOR_NAMES

        policies = tuple(args.policies) if args.policies else SELECTOR_NAMES
        spec = self.default_spec()
        spec = spec.replace(
            packet_size=args.packet_size,
            rates=(args.rate,),
            duration_ns=args.duration * 1000.0,
            warmup_ns=args.duration * 250.0,
            hosts_per_switch=args.hosts_per_switch,
            topo_seed=args.seed,
            params={
                **spec.params,
                "switch_list": tuple(args.switches),
                "policies": policies,
                "matrices": tuple(args.matrices),
                "fraction": args.fraction,
                "interval_ns": args.interval * 1000.0,
                "view": args.view,
            },
        )
        if args.quick:
            # Small fabric, abbreviated window: the hotspot sits on the
            # busiest in-transit host, so the static-vs-adaptive gap is
            # visible well before the full window closes.
            spec = spec.replace(
                duration_ns=60_000.0, warmup_ns=15_000.0,
                params={**spec.params, "switch_list": (8,)},
            )
        return spec

    def render(self, spec: ExperimentSpec, result: Any, args: Any) -> str:
        from repro.harness.report import format_table

        rows = []
        for r in result.rows:
            rows.append((
                r.n_switches, r.matrix, r.policy,
                f"{r.p99_latency_ns / 1000:.1f}",
                f"{r.mean_latency_ns / 1000:.1f}",
                f"{r.accepted:.4f}",
                r.reselect_changed, r.engaged,
            ))
        table = format_table(
            ["sw", "matrix", "policy", "p99 (us)", "mean (us)",
             "accepted", "moved", "engaged"],
            rows,
            title="EXP-A7 — static vs adaptive ITB host selection",
        )
        verdicts = []
        for n in spec.params["switch_list"]:
            for matrix in spec.params["matrices"]:
                best = result.best_adaptive(matrix, n)
                if best is None:
                    continue
                static = result.p99("static", matrix, n)
                if result.adaptive_beats_static(matrix, n):
                    gain = 100.0 * (1.0 - best[1] / static)
                    verdicts.append(
                        f"{matrix}@{n}sw: {best[0]} beats static p99"
                        f" by {gain:.1f}%")
                else:
                    verdicts.append(
                        f"{matrix}@{n}sw: static holds (best adaptive"
                        f" {best[0]})")
        return (f"{table}\n\n{'; '.join(verdicts)}\n"
                "moved = route installs by reselection; engaged ="
                " selector decisions diverted off the static pick")
