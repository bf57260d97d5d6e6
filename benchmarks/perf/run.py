"""Perf ledger benchmark: five named workloads, end-to-end and per-layer.

Run every workload (each in its own fresh single-threaded process, one
at a time, untraced then traced) and print every metric by name::

    python benchmarks/perf/run.py [--seed 7] [--workloads NAME ...]
                                  [--json ledger.json]

Run one workload in this process and print one JSON result as the last
line of standard output (the interface ``BENCHMARK.json`` declares)::

    python benchmarks/perf/run.py --workload uniform-16sw --seed 7 \\
        --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced repeats;
``--trace 1`` adds traced repeats and reports the per-layer metrics.
Every repeat's outputs are checked; a failed check, or simulated
outputs that differ between repeats (or between traced and untraced
repeats), make the result ``"correct": false`` and the exit code 1.
See ``README.md`` beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

# One thread per process: numpy must see these before it is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

#: Default measuring time per invocation, as in BENCHMARK.json.
RUN_SECONDS = 15.0
#: Fewest timed repeats a result rests on, however long they take.
MIN_REPEATS = 3

#: End-to-end metrics (``--trace 0``): name -> unit.  Times are host
#: seconds scaled to the calibration kernel's reference speed.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
#: Printed and written to the ledger, not declared: unscaled host seconds
#: follow the load on a shared host further than any bound allows.
UNDECLARED_END_TO_END = {"setup_host_s": "s", "wall_host_s": "s"}

#: Simulated latency categories of obs.critical_path, as per-layer names.
CATEGORY_METRICS = {
    "host": "gm.sim_host_pct",
    "send_queue": "mcp.sim_send_queue_pct",
    "wire": "network.sim_wire_pct",
    "switch_blocking": "network.sim_switch_blocking_pct",
    "itb_buffer": "mcp.sim_itb_buffer_pct",
    "reinject": "mcp.sim_reinject_pct",
    "recv": "mcp.sim_recv_pct",
    "retransmit": "gm.sim_retransmit_pct",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "network.self_s": "s",
    "network.worm_s": "s",
    "network.claims_s": "s",
    "network.express_hit_rate": "ratio",
    "network.stepped_hops": "count",
    "mcp.self_s": "s",
    "mcp.itb_forwards": "count",
    "mcp.itb_deferred_frac": "ratio",
    "mcp.flushed": "count",
    "nic.recv_blocked_frac": "ratio",
    "gm.self_s": "s",
    "gm.mapper_s": "s",
    "gm.retransmissions": "count",
    "gm.timeouts": "count",
    "gm.nacks": "count",
    "gm.goodput_frac": "ratio",
    "gm.reselect_runs": "count",
    "gm.routes_moved": "count",
    "gm.remaps": "count",
    "routing.self_s": "s",
    "routing.orientation_s": "s",
    "routing.tables_s": "s",
    "routing.selector_decisions": "count",
    "routing.selector_engaged": "count",
    "topology.generate_s": "s",
    "core.build_self_s": "s",
    "obs.self_s": "s",
    "obs.trace_overhead_pct": "%",
    "harness.self_s": "s",
    "trace.coverage": "ratio",
    "trace.sampled_messages": "count",
    **{name: "%" for name in CATEGORY_METRICS.values()},
}


def _bootstrap() -> None:
    """Make ``repro`` importable from the checkout this file sits in."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no repro package under {src}; run from a"
                 " checkout of the repository")
    sys.path.insert(0, str(src))


def _summary(values: list) -> dict:
    """Median, quartiles and sample count of one metric's values."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


class _Repeat:
    """Timings and outputs of one repeat."""

    def __init__(self, fn, rig, clock, seed: int, scale: float) -> None:
        from workloads import net_counters

        gc.collect()
        run_ns = clock.ns
        t0 = time.perf_counter_ns()
        self.outcome = fn(rig, seed, scale)
        total = (time.perf_counter_ns() - t0) / 1e9
        self.wall_s = (clock.ns - run_ns) / 1e9
        self.setup_s = total - self.wall_s
        self.nets = rig.nets
        self.events = rig.events
        self.counters = net_counters(rig.nets)
        self.digest = hashlib.sha256(repr(
            (self.outcome.digest_parts, sorted(self.counters.items()))
        ).encode()).hexdigest()

    def release(self) -> None:
        """Drop every reference to the repeat's networks, so the next
        repeat does not build on top of them."""
        self.nets = None
        self.outcome.final_check = None


def _layer_metrics(rep: _Repeat, self_s: dict, overhead_pct: float) -> dict:
    """Per-layer metric values of one traced repeat."""
    from repro.obs.critical_path import CATEGORIES, breakdown_dump

    from layers import UNATTRIBUTED, layer_totals

    c = rep.counters
    layers = layer_totals(self_s)
    total_s = rep.setup_s + rep.wall_s
    covered = sum(s for b, s in self_s.items() if b != UNATTRIBUTED)
    sent = max(1, c.get("packets_sent", 0))
    reinjected = c.get("itb_immediate", 0) + c.get("itb_pending", 0)
    launches = c.get("express_hits", 0) + c.get("express_fallbacks", 0)

    cat_ns = dict.fromkeys(CATEGORIES, 0.0)
    msg_ns = 0.0
    sampled = 0
    for net in rep.nets:
        spans = net.fabric.tracer.spans
        # Only message trees: selector decisions and unattached control
        # packets are roots of their own traces too.
        messages = {s.trace_id for s in spans
                    if s.parent_id is None and s.name == "message"}
        for b in breakdown_dump(s for s in spans if s.trace_id in messages):
            sampled += 1
            msg_ns += b.total_ns
            for cat, ns in b.categories.items():
                cat_ns[cat] += ns

    out = {
        "sim.self_s": layers.get("sim", 0.0),
        "sim.events": rep.events,
        "sim.ns_per_event": 1e9 * layers.get("sim", 0.0) / max(1, rep.events),
        "network.self_s": layers.get("network", 0.0),
        "network.worm_s": self_s.get("network.worm", 0.0),
        "network.claims_s": self_s.get("network.claims", 0.0),
        "network.express_hit_rate": c.get("express_hits", 0) / max(1, launches),
        "network.stepped_hops": c.get("stepped_hops", 0),
        "mcp.self_s": layers.get("mcp", 0.0),
        "mcp.itb_forwards": c.get("packets_forwarded", 0),
        "mcp.itb_deferred_frac": c.get("itb_pending", 0) / max(1, reinjected),
        "mcp.flushed": c.get("packets_flushed", 0),
        "nic.recv_blocked_frac": (c.get("recv_blocked_ns", 0.0)
                                  / max(1.0, c.get("nic_time_ns", 0.0))),
        "gm.self_s": layers.get("gm", 0.0),
        "gm.mapper_s": self_s.get("gm.mapper", 0.0),
        "gm.retransmissions": c.get("retransmissions", 0),
        "gm.timeouts": c.get("timeouts", 0),
        "gm.nacks": c.get("nacks", 0),
        "gm.goodput_frac": 1.0 - c.get("retransmissions", 0) / sent,
        "gm.reselect_runs": c.get("reselect_runs", 0),
        "gm.routes_moved": c.get("routes_moved", 0),
        "gm.remaps": c.get("remaps", 0),
        "routing.self_s": layers.get("routing", 0.0),
        "routing.orientation_s": self_s.get("routing.orientation", 0.0),
        "routing.tables_s": self_s.get("routing.tables", 0.0),
        "routing.selector_decisions": c.get("selector_decisions", 0),
        "routing.selector_engaged": c.get("selector_engaged", 0),
        "topology.generate_s": layers.get("topology", 0.0),
        "core.build_self_s": layers.get("core", 0.0),
        "obs.self_s": layers.get("obs", 0.0),
        "obs.trace_overhead_pct": overhead_pct,
        "harness.self_s": layers.get("harness", 0.0),
        "trace.coverage": covered / total_s,
        "trace.sampled_messages": sampled,
    }
    for cat, name in CATEGORY_METRICS.items():
        out[name] = 100.0 * cat_ns[cat] / msg_ns if msg_ns else 0.0
    return out


def _print_metrics(title: str, units: dict, summaries: dict) -> None:
    print(title)
    for name, unit in units.items():
        s = summaries[name]
        print(f"  {name:34s} {s['median']:14.6g} {unit:6s}"
              f" q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float) -> int:
    """Measure one workload in this process; print its result line."""
    from repro.obs import tracing

    from calibrate import REFERENCE_S, time_kernel
    from layers import SelfTimer, install_wrappers
    from workloads import SAMPLE_EVERY, WORKLOADS, Rig, RunClock

    fn = WORKLOADS[name]
    errors: list = []
    rows: list = []
    timer = SelfTimer()
    clock = RunClock().install()
    try:
        # The discarded warm-up also runs the once-per-invocation checks.
        warm = _Repeat(fn, Rig(), clock, seed, scale)
        errors += warm.outcome.errors
        if warm.outcome.final_check is not None:
            errors += warm.outcome.final_check()
        digest = warm.digest
        del warm

        cals = [time_kernel()]
        reps: list = []
        start = time.perf_counter()
        while (len(reps) < (2 if trace else MIN_REPEATS)
               or time.perf_counter() - start < seconds / (2 if trace else 1)):
            rep = _Repeat(fn, Rig(), clock, seed, scale)
            cals.append(time_kernel())
            rep.release()
            reps.append(rep)

        traced: list = []
        if trace:
            untraced_total = statistics.median(r.setup_s + r.wall_s
                                               for r in reps)
            restore = install_wrappers(timer)
            tracing.configure(sample_every=SAMPLE_EVERY[name])
            try:
                start = time.perf_counter()
                while not traced or time.perf_counter() - start < seconds / 2:
                    rep = _Repeat(fn, Rig(timer=timer), clock, seed, scale)
                    self_s = timer.take()
                    overhead = 100.0 * ((rep.setup_s + rep.wall_s)
                                        / untraced_total - 1.0)
                    rows.append(_layer_metrics(rep, self_s, overhead))
                    rep.release()
                    traced.append(rep)
            finally:
                tracing.disable()
                restore()
    finally:
        clock.uninstall()

    for rep in reps + traced:
        errors += rep.outcome.errors
        if rep.digest != digest:
            errors.append("simulated outputs differ between repeats"
                          f" (digest {rep.digest[:12]} != {digest[:12]})")

    # One calibration per invocation: the kernel's own run-to-run noise
    # is larger than the workload's, so a per-repeat divisor adds noise.
    scale_to_ref = REFERENCE_S / statistics.median(cals)
    e2e_values = {
        "setup_s": [r.setup_s * scale_to_ref for r in reps],
        "wall_s": [r.wall_s * scale_to_ref for r in reps],
        "setup_host_s": [r.setup_s for r in reps],
        "wall_host_s": [r.wall_s for r in reps],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0],
    }
    end_to_end = {k: _summary(v) for k, v in e2e_values.items()}
    e2e_units = {**END_TO_END, **UNDECLARED_END_TO_END}
    measured = reps + traced
    outcome = measured[-1].outcome

    print(f"workload {name}  seed {seed}  scale {scale:g}  trace {int(trace)}"
          f"  repeats {len(reps)} untraced + {len(traced)} traced"
          f" (+1 warm-up)  calibration {statistics.median(cals):.4f} s")
    _print_metrics("end-to-end", e2e_units, end_to_end)
    per_layer = {}
    if trace:
        per_layer = {k: _summary([row[k] for row in rows]) for k in PER_LAYER}
        _print_metrics("per-layer", PER_LAYER, per_layer)
    print(f"outcomes ({outcome.unit}: {sum(r.outcome.attempted for r in measured)}"
          f" attempted, {sum(r.outcome.failed for r in measured)} failed)")
    for key, (value, unit) in outcome.outcomes.items():
        print(f"  {key:34s} {value:14.6g} {unit}")
    for err in errors:
        print(f"CHECK FAILED: {err}")
    if not errors:
        print("checks ok")

    detail = {
        "workload": name, "seed": seed, "scale": scale, "trace": int(trace),
        "digest": digest, "calibration_s": _summary(cals),
        "end_to_end": {k: {**v, "unit": e2e_units[k]}
                       for k, v in end_to_end.items()},
        "per_layer": {k: {**v, "unit": PER_LAYER[k]}
                      for k, v in per_layer.items()},
        "outcomes": {k: {"value": v, "unit": u}
                     for k, (v, u) in outcome.outcomes.items()},
        "op_unit": outcome.unit, "errors": errors,
        "wrapper_hits": dict(timer.hits),
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    metrics = per_layer if trace else end_to_end
    units = PER_LAYER if trace else END_TO_END
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.outcome.attempted for r in measured),
        "failed": sum(r.outcome.failed for r in measured),
        "metrics": {k: {"value": metrics[k]["median"], "unit": units[k]}
                    for k in units},
    }))
    return 0 if not errors else 1


def _run_child(name: str, trace: int, args) -> tuple[int, dict, dict]:
    """One workload in a fresh process: exit code, detail, result line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--scale", str(args.scale), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    detail = next((json.loads(line[len("detail "):]) for line in lines
                   if line.startswith("detail ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else {}
    return proc.returncode, detail, result


def run_all(args) -> int:
    """Every selected workload, untraced then traced, one process each."""
    run = {
        "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": {},
    }
    failures = []
    cal = []
    for name in args.workloads:
        code0, detail0, result0 = _run_child(name, 0, args)
        code1, detail1, result1 = _run_child(name, 1, args)
        if code0 or code1 or not detail0 or not detail1:
            failures.append(f"{name}: exit codes {code0}/{code1}")
        elif detail0["digest"] != detail1["digest"]:
            failures.append(f"{name}: traced run's simulated outputs differ"
                            " from the untraced run's")
        cal += [d["calibration_s"]["median"] for d in (detail0, detail1) if d]
        run["workloads"][name] = {
            "correct": bool(result0.get("correct") and result1.get("correct")),
            "attempted": result0.get("attempted"),
            "failed": result0.get("failed"),
            "op_unit": detail0.get("op_unit"),
            "digest": detail0.get("digest"),
            "end_to_end": detail0.get("end_to_end", {}),
            "per_layer": detail1.get("per_layer", {}),
            "outcomes": detail0.get("outcomes", {}),
        }
    run["machine"]["calibration_s"] = statistics.median(cal) if cal else None

    columns = [*END_TO_END, *UNDECLARED_END_TO_END]
    print()
    print("summary (medians; end-to-end from untraced runs)")
    print(f"  {'workload':24s}" + "".join(f"{m:>14s}" for m in columns)
          + f"{'coverage':>10s}")
    for name, w in run["workloads"].items():
        cells = "".join(f"{w['end_to_end'].get(m, {}).get('median', 0.0):14.5g}"
                        for m in columns)
        cov = w["per_layer"].get("trace.coverage", {}).get("median", 0.0)
        print(f"  {name:24s}{cells}{cov:10.3f}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")

    if args.json:
        path = Path(args.json)
        doc = (json.loads(path.read_text()) if path.exists()
               else {"format": "perf-ledger/1", "runs": []})
        doc["runs"].append(run)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"appended run to {path}")
    return 1 if failures else 0


def main(argv=None) -> int:
    _bootstrap()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        description="Perf ledger benchmark (see README.md beside this file)")
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        nargs="+", action="extend", choices=sorted(WORKLOADS),
                        help="workloads to run (default: all five)")
    parser.add_argument("--seed", type=int, default=7,
                        help="traffic, host-noise, selector and fault seed")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measuring time per invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one workload in this process: 0 reports"
                             " end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (the self-test uses 0.05)")
    parser.add_argument("--json", help="append this run to a ledger file")
    args = parser.parse_args(argv)
    if args.trace is None:
        args.workloads = args.workloads or list(WORKLOADS)
        return run_all(args)
    if not args.workloads or len(args.workloads) != 1:
        parser.error("--trace runs exactly one --workload")
    return run_workload(args.workloads[0], args.seed, args.seconds,
                        bool(args.trace), args.scale)


if __name__ == "__main__":
    sys.exit(main())
