"""Self-test of the perf benchmark, every workload at ``--scale 0.05``.

Outside tier-1's ``testpaths``; run it with::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# The in-process tests import the benchmark's modules, which import repro.
sys.path.insert(0, str(ROOT / "src"))

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]
SMALL = ("--scale", "0.05", "--seconds", "0", "--seed", "7")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "perf" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    lines = proc.stdout.splitlines()
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    return detail, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs() -> dict:
    """``(workload, trace) -> (exit code, detail, result line)``."""
    out = {}
    for name in NAMES:
        for trace in (0, 1):
            proc = _run("--workload", name, "--trace", str(trace), *SMALL)
            assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
            out[name, trace] = _parse(proc)
    return out


def test_every_workload_checks_out(runs):
    for (name, trace), (detail, result) in runs.items():
        assert result["correct"], (name, trace, detail["errors"])
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_metric_names_and_units_match_benchmark_json(runs):
    want = {0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
            1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}}
    for (name, trace), (_detail, result) in runs.items():
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want[trace], (name, trace)


def test_end_to_end_metrics_are_never_zero(runs):
    for (name, trace), (_detail, result) in runs.items():
        if trace == 0:
            for metric, value in result["metrics"].items():
                assert value["value"] > 0, (name, metric)


def test_each_wrapper_is_hit_by_its_workload(runs):
    from layers import WRAPPERS, wrapper_key

    for owner, attribute, _bucket, workload in WRAPPERS:
        hits = runs[workload, 1][0]["wrapper_hits"]
        assert hits.get(wrapper_key(owner, attribute), 0) >= 1, (
            f"{owner}.{attribute} never called by {workload}")


def test_layers_explain_the_traced_wall_time(runs):
    for name in NAMES:
        coverage = runs[name, 1][0]["per_layer"]["trace.coverage"]["median"]
        assert coverage >= 0.9, (name, coverage)


def test_tracing_does_not_perturb_the_simulation(runs):
    for name in NAMES:
        assert runs[name, 0][0]["digest"] == runs[name, 1][0]["digest"], name


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    import run
    import workloads

    real = workloads.WORKLOADS["gm-faults"]

    def broken(rig, seed, scale):
        outcome = real(rig, seed, scale)
        outcome.errors.append("forced failure")
        return outcome

    monkeypatch.setitem(workloads.WORKLOADS, "gm-faults", broken)
    code = run.main(["--workload", "gm-faults", "--trace", "0", *SMALL])
    last = capsys.readouterr().out.splitlines()[-1]
    assert code != 0
    assert json.loads(last)["correct"] is False


def test_all_workloads_mode_appends_a_ledger_run(tmp_path):
    ledger = tmp_path / "ledger.json"
    proc = _run("--workloads", "gm-faults", *SMALL, "--json", str(ledger))
    assert proc.returncode == 0, proc.stdout[-2000:]
    doc = json.loads(ledger.read_text())
    run = doc["runs"][-1]
    assert set(run["workloads"]) == {"gm-faults"}
    assert run["workloads"]["gm-faults"]["correct"]
    assert run["machine"]["calibration_s"] > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
