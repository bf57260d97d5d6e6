"""Command-line interface: ``python -m repro <experiment> [options]``.

Experiment subcommands are generated from the unified experiment
registry (:mod:`repro.exp`): every registered experiment gets a
top-level subcommand (``repro fig7``, ``repro throughput``, ...) and
the same spelled out as ``repro run <name>``; ``repro list`` shows
what is registered.  Each generated subcommand accepts ``--jobs N``
(fan independent points over a process pool; results are identical to
a serial run) and ``--save FILE`` (persist the spec-keyed result
document).

Hand-written subcommands cover everything that is not a registered
experiment:

* ``fig1`` — Figure 1 route analysis,
* ``discover`` — run the mapper's exploration on a topology,
* ``validate`` — measure every quick-checkable paper claim and print
  one verdict table (exit code reflects the outcome),
* ``all`` — regenerate the figure results and persist them to JSON
  (``--save results.json``) for EXPERIMENTS.md refreshes,
* ``obs`` — run an instrumented workload and dump the unified
  telemetry (metrics, sampled time series, engine profile) as
  Prometheus text, JSON, CSV, and a chrome trace with counter tracks,
* ``trace`` — run a traced workload and inspect the causal span trees:
  ``summarize`` (top-N slowest messages as ASCII waterfalls),
  ``critical-path`` (exclusive per-category latency attribution), and
  ``export`` (canonical span dump + chrome trace with flow arrows),
* ``bench-report`` — tabulate the ``BENCH_*.json`` trajectory files
  the benchmark suite writes, optionally failing on speedup-ratio
  regressions against a committed baseline.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.exp import Experiment, list_experiments
from repro.harness.fig7 import DEFAULT_SIZES, run_fig7
from repro.harness.fig8 import run_fig8
from repro.harness.report import format_table

__all__ = ["main"]


def _positive_int(text: str) -> int:
    """argparse type for ``--jobs``: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    """argparse type for ``--tolerance``: a fraction in [0, 1).

    At 1 or above every baseline floor would be zero or negative and
    the regression gate could never fail.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {value}")
    return value


def _sizes(args) -> tuple[int, ...]:
    if args.full:
        return DEFAULT_SIZES
    return (16, 128, 1024, 4096)


# ---------------------------------------------------------------------------
# registry-generated experiment commands
# ---------------------------------------------------------------------------


def _make_experiment_command(exp: Experiment):
    """The handler of one registry-generated experiment subcommand."""

    def cmd(args) -> int:
        from repro.exp import Runner

        spec = exp.spec_from_args(args)
        report = Runner().run(spec, jobs=args.jobs,
                              save=args.save or None)
        print(exp.render(spec, report.result, args))
        express = report.express
        total = express.get("hits", 0) + express.get("fallbacks", 0)
        if total:
            pct = 100.0 * express["hits"] / total
            print(f"express worms: {express['hits']}/{total}"
                  f" ({pct:.1f}% hit rate,"
                  f" {express['stepped_hops']} stepped hops)")
        if report.saved_to:
            print(f"saved to {report.saved_to}")
        return 0

    return cmd


def _add_experiment_arguments(p: argparse.ArgumentParser,
                              exp: Experiment) -> None:
    """Add one experiment's declared options plus the shared runner
    options (``--jobs``, ``--save``) to a subparser."""
    for opt in exp.cli_options:
        p.add_argument(*opt.flags, **opt.kwargs)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="process-pool width for independent points"
                        " (results are identical to --jobs 1)")
    p.add_argument("--save", type=str, default="",
                   help="persist the result document to this JSON file")
    p.set_defaults(func=_make_experiment_command(exp))


def _cmd_list(_args) -> int:
    print(format_table(
        ["experiment", "description"],
        [(exp.name, exp.title) for exp in list_experiments()],
        title="registered experiments (repro run <name>)",
    ))
    return 0


# ---------------------------------------------------------------------------
# hand-written commands (not registry experiments)
# ---------------------------------------------------------------------------


def _cmd_fig1(_args) -> int:
    from repro.harness.fig1 import run_fig1

    r = run_fig1()
    print(format_table(
        ["quantity", "value"],
        [
            ("showcase minimal length", r.showcase_minimal_len),
            ("showcase up*/down* length", r.showcase_updown_len),
            ("showcase ITB inter-switch hops",
             r.showcase_itb_inter_switch_hops),
            ("up*/down* deadlock-free", str(r.updown_deadlock_free)),
            ("ITB deadlock-free", str(r.itb_deadlock_free)),
            ("minimal deadlock-free", str(r.minimal_deadlock_free)),
            ("root crossing UD -> ITB",
             f"{r.root_cross_updown:.2f} -> {r.root_cross_itb:.2f}"),
        ],
        title="Figure 1 analysis",
    ))
    return 0


def _cmd_topo(args) -> int:
    """Generate a topology from a spec string and describe it."""
    from repro.routing.minimal import switch_distances
    from repro.routing.spanning_tree import build_orientation
    from repro.topology.export import to_dot, to_text
    from repro.topology.generators import make_topology

    from repro.topology.graph import TopologyError

    try:
        topo = make_topology(args.spec)
    except TopologyError as exc:
        print(f"repro topo: {exc}", file=sys.stderr)
        return 2
    orientation = build_orientation(
        topo, root=args.root if args.root >= 0 else None)
    if args.dot:
        print(to_dot(topo, orientation))
        return 0
    if args.text:
        print(to_text(topo, orientation))
        return 0

    switches = topo.switches()
    ecc = {s: max(switch_distances(topo, s).values()) for s in switches}
    degree = {
        s: len({n for (_p, n, _l) in topo.switch_neighbors(s)})
        for s in switches
    }
    hosted = sum(1 for s in switches if topo.hosts_on(s))
    print(format_table(
        ["quantity", "value"],
        [
            ("name", topo.name),
            ("switches", len(switches)),
            ("hosts", len(topo.hosts())),
            ("cables", len(topo.links)),
            ("diameter", max(ecc.values())),
            ("max fabric degree", max(degree.values())),
            ("switches with hosts", hosted),
            ("spanning-tree root", topo.node_name(orientation.root)),
            ("tree depth", max(orientation.level.values())),
        ],
        title=f"topology {args.spec}",
    ))
    # The root-election view: best candidates first (the chosen root
    # minimizes (eccentricity, id) — see choose_root).
    candidates = sorted(switches, key=lambda s: (ecc[s], s))
    shown = candidates[:args.candidates]
    print()
    print(format_table(
        ["switch", "eccentricity", "degree", "hosts", "elected"],
        [(topo.node_name(s), ecc[s], degree[s], len(topo.hosts_on(s)),
          "*" if s == orientation.root else "")
         for s in shown],
        title=f"root candidates (top {len(shown)} of {len(switches)})",
    ))
    return 0


def _cmd_validate(args) -> int:
    from repro.harness.validation import validate_claims

    report = validate_claims(
        iterations=args.iterations,
        include_throughput=args.throughput,
        throughput_switches=64 if args.throughput else 0,
    )
    print(report.render())
    print(f"\n{report.n_checked} claims checked;"
          f" {'ALL HOLD' if report.all_hold else 'VIOLATIONS PRESENT'}")
    return 0 if report.all_hold else 1


def _cmd_all(args) -> int:
    """Regenerate fig7/fig8 (+ optional throughput) and persist."""
    from repro.harness.persist import save_results
    from repro.harness.throughput import run_throughput

    sizes = _sizes(args)
    results = {
        "fig7": run_fig7(sizes=sizes, iterations=args.iterations),
        "fig8": run_fig8(sizes=sizes, iterations=args.iterations),
    }
    if args.throughput:
        results["throughput"] = run_throughput(
            n_switches=args.switches, packet_size=512,
            rates=(0.02, 0.06, 0.12), duration_ns=150_000.0,
            warmup_ns=30_000.0, hosts_per_switch=2,
        )
    f7, f8 = results["fig7"], results["fig8"]
    print(f"fig7: avg overhead {f7.mean_overhead_ns:.0f} ns"
          " (paper ~125 ns)")
    print(f"fig8: per-ITB overhead {f8.mean_overhead_ns / 1000:.2f} us"
          " (paper ~1.3 us)")
    if args.throughput:
        print("throughput: peak ratio"
              f" {results['throughput'].throughput_ratio:.2f}x")
    if args.save:
        path = save_results(args.save, results,
                            extra={"iterations": args.iterations})
        print(f"saved to {path}")
    return 0


def _cmd_obs(args) -> int:
    from repro.harness.report import (profiler_table, quantile_cells,
                                      registry_table)
    from repro.obs.run import export_all, run_obs

    if args.interval <= 0:
        print("repro obs: error: --interval must be positive: "
              f"{args.interval}", file=sys.stderr)
        return 2
    r = run_obs(
        topology=args.topology,
        switches=args.switches,
        hosts_per_switch=args.hosts_per_switch,
        topo_seed=args.seed,
        routing=args.routing,
        load=args.load,
        packet_size=args.packet_size,
        duration_ns=args.duration * 1000.0,
        warmup_ns=args.warmup * 1000.0,
        interval_ns=args.interval,
        traffic_seed=args.traffic_seed,
        trace_every=args.trace_every,
    )
    t, lat = r.traffic, r.latency
    p50, p90, p99, p999 = quantile_cells(lat)
    print(format_table(
        ["quantity", "value"],
        [
            ("offered packets", t.offered_packets),
            ("delivered packets", t.delivered_packets),
            ("dropped packets", t.dropped_packets),
            ("delivered fraction", t.delivered_fraction),
            ("mean latency (us)", lat.mean_us),
            ("p50 / p90 (us)", f"{p50} / {p90}"),
            ("p99 / p99.9 (us)", f"{p99} / {p999}"),
        ],
        title=f"repro obs — {args.topology}, load {args.load}",
    ))
    print()
    print(registry_table(r.registry, title="telemetry (nonzero metrics)",
                         kinds=("counter", "gauge", "histogram"),
                         limit=args.rows))
    if r.telemetry.profiler is not None:
        print()
        print(profiler_table(r.telemetry.profiler))
    sampler = r.telemetry.sampler
    if sampler is not None:
        print(f"\nsampled {sampler.n_ticks} snapshots x"
              f" {len(sampler.series)} gauge series"
              f" @ {sampler.interval_ns:.0f} ns")
    if args.out:
        paths = export_all(r, args.out)
        for kind, path in sorted(paths.items()):
            print(f"wrote {kind}: {path}")
    return 0


def _cmd_trace(args) -> int:
    """``repro trace``: run a traced workload, inspect the span trees."""
    from fractions import Fraction

    from repro.obs.critical_path import CATEGORIES, breakdown_dump
    from repro.obs.run import export_all, run_obs
    from repro.obs.tracing import span_tree, waterfall_lines

    r = run_obs(
        topology=args.topology,
        switches=args.switches,
        hosts_per_switch=args.hosts_per_switch,
        topo_seed=args.seed,
        routing=args.routing,
        load=args.load,
        packet_size=args.packet_size,
        duration_ns=args.duration * 1000.0,
        warmup_ns=args.warmup * 1000.0,
        traffic_seed=args.traffic_seed,
        profile=False,
        trace_every=args.every,
    )
    tracer = r.tracer
    roots = tracer.roots()
    breakdowns = breakdown_dump(tracer.spans)
    in_flight = len(roots) - len(breakdowns)
    print(f"traced {len(roots)} messages / {len(tracer.spans)} spans"
          f" (sampling every {args.every});"
          f" {len(breakdowns)} completed, {in_flight} in flight")

    if args.action == "summarize":
        slowest = sorted(breakdowns, key=lambda b: b.total_ns,
                         reverse=True)[:args.top]
        for b in slowest:
            print(f"\ntrace {b.trace_id}: {b.total_ns / 1000.0:.3f} us,"
                  f" {b.n_attempts} attempt(s), status {b.status}")
            for line in waterfall_lines(
                    span_tree(tracer.spans_of(b.trace_id))):
                print(f"  {line}")
        return 0

    if args.action == "critical-path":
        totals = {cat: Fraction(0) for cat in CATEGORIES}
        for b in breakdowns:
            for cat, frac in b.fractions.items():
                totals[cat] += frac
        grand = sum(totals.values(), Fraction(0))
        n = max(len(breakdowns), 1)
        rows = [
            (cat, float(totals[cat]) / 1000.0,
             (100.0 * float(totals[cat] / grand)) if grand else 0.0,
             float(totals[cat]) / n / 1000.0)
            for cat in CATEGORIES
        ]
        rows.append(("TOTAL", float(grand) / 1000.0, 100.0 if grand else 0.0,
                     float(grand) / n / 1000.0))
        print()
        print(format_table(
            ["category", "total (us)", "share (%)", "mean/trace (us)"],
            rows, title="critical-path attribution"
        ))
        return 0

    # export
    paths = export_all(r, args.out)
    for kind, path in sorted(paths.items()):
        print(f"wrote {kind}: {path}")
    return 0


def _cmd_bench_report(args) -> int:
    """Tabulate ``BENCH_<group>.json`` trajectory files (written by the
    benchmark suite's session fixture) and, with ``--baseline``, fail
    on speedup-ratio regressions beyond ``--tolerance``."""
    import json
    from pathlib import Path

    bench_dir = Path(args.dir)
    files = sorted(bench_dir.glob("BENCH_*.json"))
    if not files:
        print(f"no BENCH_*.json files under {bench_dir}", file=sys.stderr)
        return 2

    rows = []
    ratios: dict[str, dict[str, float]] = {}
    for path in files:
        doc = json.loads(path.read_text())
        group = doc.get("group", path.stem.removeprefix("BENCH_"))
        for test, rec in sorted(doc.get("records", {}).items()):
            mean = rec.get("mean_s")
            ratio = rec.get("speedup_ratio")
            rows.append((
                group, test,
                f"{mean * 1e3:.2f}" if mean is not None else "-",
                f"{rec.get('wall_s', 0.0):.2f}",
                f"{ratio:.2f}x" if ratio is not None else "-",
            ))
            if ratio is not None:
                ratios.setdefault(group, {})[test] = ratio
    print(format_table(
        ["group", "benchmark", "mean (ms)", "wall (s)", "speedup"],
        rows, title=f"benchmark trajectory ({len(files)} groups)",
    ))

    if not args.baseline:
        return 0
    baseline = json.loads(Path(args.baseline).read_text())
    failures = []
    for group, tests in baseline.items():
        for test, expected in tests.items():
            floor = expected * (1.0 - args.tolerance)
            measured = ratios.get(group, {}).get(test)
            if measured is None:
                failures.append(f"{group}:{test}: no measured speedup ratio")
            elif measured < floor:
                failures.append(
                    f"{group}:{test}: {measured:.2f}x is below"
                    f" {floor:.2f}x (baseline {expected:.2f}x"
                    f" - {args.tolerance:.0%} tolerance)"
                )
    if failures:
        print("\nbench-report: REGRESSION", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nbench-report: within {args.tolerance:.0%} of baseline")
    return 0


def _cmd_discover(args) -> int:
    from repro.core.builder import build_network
    from repro.gm.discovery import discover_network
    from repro.topology.generators import random_irregular

    if args.topology == "fig6":
        net = build_network("fig6")
        mapper = net.roles["host1"]
    else:
        topo = random_irregular(args.switches, seed=args.seed,
                                hosts_per_switch=args.hosts_per_switch)
        net = build_network(topo)
        mapper = sorted(net.gm_hosts)[0]
    m = discover_network(net, mapper)
    print(format_table(
        ["quantity", "value"],
        [
            ("mapper host", m.mapper_host),
            ("switches discovered", m.n_switches),
            ("hosts discovered", len(m.hosts)),
            ("probes sent", m.probes_sent),
            ("mapping time (us)", f"{m.elapsed_ns / 1000:.1f}"),
        ],
        title="GM mapper exploration",
    ))
    for label in sorted(m.switch_ports):
        peers = sorted(m.switch_adjacency()[label])
        hosts = sorted(h for h, (l, _p) in m.host_attach.items()
                       if l == label)
        print(f"  {label}: switches {peers}, hosts {hosts}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A First Implementation of"
                    " In-Transit Buffers on Myrinet GM Software'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="Figure 1 route analysis")
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("topo", help="generate a topology from a spec"
                                    " string and describe it")
    p.add_argument("spec",
                   help="generator spec, e.g. fig6, clos:m=4,n=1,r=12,"
                        " fattree:k=8, random-scaled:n=256,seed=3")
    p.add_argument("--root", type=int, default=-1,
                   help="spanning-tree root override (switch id)")
    p.add_argument("--candidates", type=int, default=8,
                   help="root candidates to list in the stats view")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--text", action="store_true",
                       help="per-port cabling listing instead of stats")
    group.add_argument("--dot", action="store_true",
                       help="Graphviz DOT instead of stats")
    p.set_defaults(func=_cmd_topo)

    # One subcommand per registered experiment, at the top level (the
    # legacy spellings: ``repro fig7``, ``repro throughput``, ...).
    for exp in list_experiments():
        p = sub.add_parser(exp.name, help=exp.title)
        _add_experiment_arguments(p, exp)

    # ... and the same set under ``repro run <name>``.  An unknown
    # name is an argparse choice error: exit code 2 plus the list of
    # registered names, never a traceback.
    p_run = sub.add_parser("run", help="run a registered experiment"
                                       " by name")
    run_sub = p_run.add_subparsers(dest="experiment", required=True,
                                   metavar="experiment")
    for exp in list_experiments():
        p = run_sub.add_parser(exp.name, help=exp.title)
        _add_experiment_arguments(p, exp)

    p = sub.add_parser("list", help="list registered experiments")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("all", help="regenerate figure results, optionally"
                                   " persisting to JSON")
    p.add_argument("--full", action="store_true")
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--throughput", action="store_true")
    p.add_argument("--switches", type=int, default=16)
    p.add_argument("--save", type=str, default="")
    p.set_defaults(func=_cmd_all)

    p = sub.add_parser("validate", help="measure and judge every paper claim")
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--throughput", action="store_true",
                   help="include the 64-switch EXP-M1 ratio (minutes)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("obs", help="instrumented workload: unified"
                                   " telemetry dump")
    p.add_argument("--topology", choices=("fig6", "random"),
                   default="fig6")
    p.add_argument("--switches", type=int, default=8)
    p.add_argument("--hosts-per-switch", type=int, default=2)
    p.add_argument("--routing", choices=("updown", "itb"),
                   default="updown")
    p.add_argument("--load", type=float, default=0.02,
                   help="offered load (bytes/ns/host; link = 0.16)")
    p.add_argument("--packet-size", type=int, default=512)
    p.add_argument("--duration", type=float, default=50.0,
                   help="measurement window (us)")
    p.add_argument("--warmup", type=float, default=0.0,
                   help="warmup before the window (us)")
    p.add_argument("--interval", type=float, default=1000.0,
                   help="gauge sampling interval (ns)")
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--traffic-seed", type=int, default=7)
    p.add_argument("--rows", type=int, default=40,
                   help="max telemetry table rows printed")
    p.add_argument("--trace-every", type=int, default=0,
                   help="span-trace every Nth message (0 = tracing off);"
                        " feeds the latency_breakdown_ns histograms")
    p.add_argument("--out", type=str, default="",
                   help="directory for the exporter dumps")
    p.set_defaults(func=_cmd_obs)

    p = sub.add_parser("trace", help="causal span tracing: waterfalls,"
                                     " critical path, span-dump export")
    p.add_argument("action", choices=("summarize", "critical-path", "export"),
                   help="summarize: top-N slowest messages as ASCII"
                        " waterfalls; critical-path: per-category latency"
                        " attribution; export: span dump + chrome trace")
    p.add_argument("--topology", choices=("fig6", "random"),
                   default="fig6")
    p.add_argument("--switches", type=int, default=8)
    p.add_argument("--hosts-per-switch", type=int, default=2)
    p.add_argument("--routing", choices=("updown", "itb"),
                   default="updown")
    p.add_argument("--load", type=float, default=0.02,
                   help="offered load (bytes/ns/host; link = 0.16)")
    p.add_argument("--packet-size", type=int, default=512)
    p.add_argument("--duration", type=float, default=50.0,
                   help="measurement window (us)")
    p.add_argument("--warmup", type=float, default=0.0,
                   help="warmup before the window (us)")
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--traffic-seed", type=int, default=7)
    p.add_argument("--every", type=_positive_int, default=1,
                   help="trace every Nth message (1 = all)")
    p.add_argument("--top", type=_positive_int, default=3,
                   help="waterfalls printed by summarize")
    p.add_argument("--out", type=str, default="traces",
                   help="output directory for export")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("bench-report", help="tabulate BENCH_*.json benchmark"
                                            " trajectories; check a baseline")
    p.add_argument("--dir", type=str, default=".",
                   help="directory holding BENCH_*.json files")
    p.add_argument("--baseline", type=str, default="",
                   help="JSON file of group -> test -> expected speedup"
                        " ratio; exit 1 on regression")
    p.add_argument("--tolerance", type=_tolerance, default=0.25,
                   help="allowed fractional regression vs baseline,"
                        " in [0, 1)")
    p.set_defaults(func=_cmd_bench_report)

    p = sub.add_parser("discover", help="run the mapper's exploration")
    p.add_argument("--topology", choices=("fig6", "random"),
                   default="fig6")
    p.add_argument("--switches", type=int, default=8)
    p.add_argument("--hosts-per-switch", type=int, default=1)
    p.add_argument("--seed", type=int, default=5)
    p.set_defaults(func=_cmd_discover)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv`` and run the selected command."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
