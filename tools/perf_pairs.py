"""Paired A/B runs of the perf benchmark: a parent checkout against a change.

For each workload, runs ``benchmarks/perf/run.py --workload W --seed S
--trace 0`` in each checkout, ``--pairs`` times, alternating which side
runs first, each run in its own process::

    python tools/perf_pairs.py --parent ../parent --change . \\
        [--workloads paper-ladder ...] [--seed 7] [--pairs 10] \\
        [--seconds 15] [--scale 1]

For every workload and end-to-end metric declared in the change's
``BENCHMARK.json`` it prints each side's median and quartiles, the
share of pairs the change won (ties count for neither side), and a
verdict:

* ``gain``: the change won at least 9/10 of the pairs, the medians
  are further apart than the parent's interquartile range, and the
  change's share of failed operations is no larger than the parent's;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved``: the parent's own spread is wider than the bound and
  not every change run beats every parent run;
* ``within bound``: otherwise.

Every invocation gets its own fresh, empty ``PYTHONPYCACHEPREFIX``
directory outside both checkouts, so both sides compile every module
and neither checkout's ``__pycache__`` state moves ``peak_rss_mb``.

It also prints each side's failed operations (``failed / attempted``
summed over its runs), whether every run of both sides produced the
same simulated-output digest, and every run's value of every metric in
pair order.  The exit code is 1 when a run fails, reports
``"correct": false``, or the digests differ; a verdict never fails it.
The tool only reads ``BENCHMARK.json`` and calls ``run.py`` unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_PY = Path("benchmarks") / "perf" / "run.py"
#: Fewest pairs the gain rule accepts, and the share of them to win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def run_once(tree: Path, workload: str, args) -> tuple[dict, str]:
    """One ``run.py`` invocation: its result line and its digest."""
    cmd = [sys.executable, str(tree / RUN_PY), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--scale", str(args.scale), "--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="perf-pycache-") as pycache:
        proc = subprocess.run(
            cmd, cwd=tree, capture_output=True, text=True, timeout=1800,
            env={**os.environ, "PYTHONPYCACHEPREFIX": pycache})
    lines = proc.stdout.splitlines()
    detail = next((json.loads(line[len("detail "):]) for line in lines
                   if line.startswith("detail ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        result["correct"] = False
    return result, detail.get("digest", "")


def quartiles(values: list) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``run.py`` computes them."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
        return q1, med, q3
    return values[0], values[0], values[0]


def failed_share(failed: int, attempted: int) -> float:
    """Share of operations that failed (0 when none were attempted)."""
    return failed / attempted if attempted else 0.0


def verdict(parent: list, change: list, metric: dict,
            failed: tuple[float, float] = (0.0, 0.0)) -> tuple[float, str]:
    """The change's win share and the verdict on one metric.

    ``failed`` is the ``(parent, change)`` share of failed operations;
    a change that fails a larger share than its parent is never a gain.
    """
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    share = wins / len(parent)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    bound = metric["bound"]
    if (len(parent) >= MIN_PAIRS and share >= WIN_SHARE
            and sign * (p_med - c_med) > p_q3 - p_q1
            and failed[1] <= failed[0]):
        return share, "gain"
    if sign * (c_med - p_med) > bound * abs(p_med):
        return share, "regression"
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    if spread > bound and not all(sign * (p - c) > 0
                                  for p in parent for c in change):
        return share, "unresolved"
    return share, "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Paired A/B runs of benchmarks/perf/run.py")
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workloads", nargs="+",
                        help="workloads to run (default: all declared)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seconds", type=float,
                        help="run.py --seconds (default: BENCHMARK.json's)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="run.py --scale")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    bench = json.loads((change / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    ok = True
    for workload in workloads:
        values = {"parent": {m["name"]: [] for m in metrics},
                  "change": {m["name"]: [] for m in metrics}}
        digests: set = set()
        ops = {"parent": [0, 0], "change": [0, 0]}  # failed, attempted
        for i in range(args.pairs):
            order = (("parent", parent), ("change", change))
            for side, tree in (order if i % 2 == 0 else order[::-1]):
                result, digest = run_once(tree, workload, args)
                digests.add(digest)
                if not result["correct"]:
                    ok = False
                    continue
                ops[side][0] += result["failed"]
                ops[side][1] += result["attempted"]
                for m in metrics:
                    values[side][m["name"]].append(
                        result["metrics"][m["name"]]["value"])
        shares = (failed_share(*ops["parent"]), failed_share(*ops["change"]))
        print(f"{workload}  seed {args.seed}  pairs {args.pairs}"
              f"  scale {args.scale:g}  seconds {args.seconds:g}")
        for m in metrics:
            p, c = values["parent"][m["name"]], values["change"][m["name"]]
            if not p or len(p) != len(c):
                print(f"  {m['name']:12s} incomplete: a run failed")
                continue
            p_q = quartiles(p)
            c_q = quartiles(c)
            share, text = verdict(p, c, m, shares)
            ratio = c_q[1] / p_q[1] if p_q[1] else float("nan")
            print(f"  {m['name']:12s} parent {p_q[1]:10.5g} [{p_q[0]:.5g},"
                  f" {p_q[2]:.5g}]  change {c_q[1]:10.5g} [{c_q[0]:.5g},"
                  f" {c_q[2]:.5g}] {m['unit']:3s} x{ratio:.3f}"
                  f"  wins {share:.2f}  bound {m['bound']:g}  {text}")
        same = len(digests) == 1 and "" not in digests
        print("  failed ops   " + "  ".join(
            f"{side} {ops[side][0]}/{ops[side][1]} ({share:.3%})"
            for side, share in zip(ops, shares)))
        print(f"  digests      {'match' if same else 'DIFFER'}")
        print("  every run, in pair order (the parent ran first in odd"
              " pairs):")
        for m in metrics:
            for side in ("parent", "change"):
                name = m["name"] if side == "parent" else ""
                runs = " ".join(f"{v:.4g}" for v in values[side][m["name"]])
                print(f"  {name:12s} {side:6s} {runs}")
        ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
