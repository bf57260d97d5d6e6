"""Command-line interface: ``python -m repro <command> [options]``.

Experiment commands are generated from the unified experiment
registry (:mod:`repro.exp`): ``repro run <name>`` runs a registered
experiment, and ``repro list`` shows what is registered.  Every
``repro run <name>`` accepts

* ``--jobs N`` — fan independent points over a process pool (results
  are identical to a serial run),
* ``--save FILE`` — persist the spec-keyed result document,
* ``--metrics-out DIR`` — observe every build (metrics registry,
  sampled gauge series, engine profile) and write each build's
  telemetry files to ``DIR/p<point>-b<build>/``; ``DIR`` must be
  absent or empty (exit 2 otherwise),
* ``--trace-every N`` — with ``--metrics-out``, span-trace every Nth
  message of every build (adds ``spans.json`` and the chrome trace's
  span rows).

Hand-written subcommands cover everything that is not a registered
experiment:

* ``fig1`` — Figure 1 route analysis,
* ``topo`` — generate a topology from a spec string and describe it,
* ``discover`` — run the mapper's exploration on a topology,
* ``validate`` — measure every quick-checkable paper claim and print
  one verdict table (exit code reflects the outcome),
* ``trace`` — inspect a span dump (a ``spans.json`` written by
  ``repro run <name> --metrics-out DIR --trace-every N``):
  ``summarize`` (top-N slowest messages as ASCII waterfalls) and
  ``critical-path`` (exclusive per-category latency attribution).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.exp import Experiment, list_experiments
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


# ---------------------------------------------------------------------------
# registry-generated experiment commands
# ---------------------------------------------------------------------------


def _make_experiment_command(exp: Experiment,
                             parser: argparse.ArgumentParser):
    """The handler of one registry-generated experiment subcommand."""

    def cmd(args) -> int:
        from repro.exp import Runner
        from repro.exp.runner import check_metrics_out
        from repro.obs import tracing

        metrics_out = args.metrics_out or None
        if args.trace_every and not metrics_out:
            parser.error("--trace-every requires --metrics-out")
        if metrics_out:
            try:
                check_metrics_out(metrics_out)
            except ValueError as exc:
                parser.error(str(exc))
        spec = exp.spec_from_args(args)
        if args.trace_every:
            # Forked workers inherit the builder's tracer factory.
            tracing.configure(args.trace_every)
        try:
            report = Runner().run(spec, jobs=args.jobs,
                                  save=args.save or None,
                                  metrics_out=metrics_out)
        finally:
            if args.trace_every:
                tracing.disable()
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
        if metrics_out:
            n_builds = sum(1 for _ in Path(metrics_out).iterdir())
            print(f"telemetry of {n_builds} builds written under"
                  f" {metrics_out}")
        return 0

    return cmd


def _add_experiment_arguments(p: argparse.ArgumentParser,
                              exp: Experiment) -> None:
    """Add one experiment's declared options plus the shared runner
    options (``--jobs``, ``--save``, ``--metrics-out``,
    ``--trace-every``) to a subparser."""
    for opt in exp.cli_options:
        p.add_argument(*opt.flags, **opt.kwargs)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="process-pool width for independent points"
                        " (results are identical to --jobs 1)")
    p.add_argument("--save", type=str, default="",
                   help="persist the result document to this JSON file")
    p.add_argument("--metrics-out", type=str, default="",
                   help="observe every build and write its telemetry"
                        " files to DIR/p<point>-b<build>/ (DIR must be"
                        " absent or empty)")
    p.add_argument("--trace-every", type=_positive_int, default=None,
                   help="span-trace every Nth message (1 = all);"
                        " needs --metrics-out")
    p.set_defaults(func=_make_experiment_command(exp, p))


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

    report = validate_claims(iterations=args.iterations,
                             include_throughput=args.throughput)
    print(report.render())
    print(f"\n{report.n_checked} claims checked;"
          f" {'ALL HOLD' if report.all_hold else 'VIOLATIONS PRESENT'}")
    return 0 if report.all_hold else 1


def _cmd_trace(args) -> int:
    """``repro trace``: inspect the causal span trees of a span dump."""
    import json
    from fractions import Fraction

    from repro.obs.critical_path import CATEGORIES, breakdown_dump
    from repro.obs.tracing import load_dump, span_tree, waterfall_lines

    try:
        with open(args.spans, encoding="utf-8") as fh:
            doc = json.load(fh)
        spans = load_dump(doc)
    except (OSError, ValueError) as exc:
        print(f"repro trace: {args.spans}: {exc}", file=sys.stderr)
        return 2
    n_roots = sum(1 for s in spans if s["parent"] is None)
    breakdowns = breakdown_dump(spans)
    in_flight = n_roots - len(breakdowns)
    print(f"traced {n_roots} messages / {len(spans)} spans"
          f" (sampling every {doc.get('sample_every')});"
          f" {len(breakdowns)} completed, {in_flight} in flight")

    if args.action == "summarize":
        slowest = sorted(breakdowns, key=lambda b: b.total_ns,
                         reverse=True)[:args.top]
        for b in slowest:
            print(f"\ntrace {b.trace_id}: {b.total_ns / 1000.0:.3f} us,"
                  f" {b.n_attempts} attempt(s), status {b.status}")
            for line in waterfall_lines(
                    span_tree(s for s in spans if s["trace"] == b.trace_id)):
                print(f"  {line}")
        return 0

    # critical-path
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

    # ``repro run <name>``, one subcommand per registered experiment.
    # An unknown name is an argparse choice error: exit code 2 plus the
    # list of registered names, never a traceback.
    p_run = sub.add_parser("run", help="run a registered experiment"
                                       " by name")
    run_sub = p_run.add_subparsers(dest="experiment", required=True,
                                   metavar="experiment")
    for exp in list_experiments():
        p = run_sub.add_parser(exp.name, help=exp.title)
        _add_experiment_arguments(p, exp)

    p = sub.add_parser("list", help="list registered experiments")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("validate", help="measure and judge every paper claim")
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--throughput", action="store_true",
                   help="include the 64-switch EXP-M1 ratio (minutes)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("trace", help="inspect a span dump: waterfalls"
                                     " or critical path")
    p.add_argument("action", choices=("summarize", "critical-path"),
                   help="summarize: top-N slowest messages as ASCII"
                        " waterfalls; critical-path: per-category latency"
                        " attribution")
    p.add_argument("spans",
                   help="a repro-spans/1 file, e.g. the spans.json of"
                        " repro run <name> --metrics-out DIR"
                        " --trace-every N")
    p.add_argument("--top", type=_positive_int, default=3,
                   help="waterfalls printed by summarize")
    p.set_defaults(func=_cmd_trace)

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
