"""Tests for ``tools/perf_pairs.py`` (docs/PERF.md): the verdict rule
and the environment of each ``run.py`` invocation."""

from __future__ import annotations

import importlib.util
import os
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", _PATH)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)
verdict = perf_pairs.verdict

LOWER = {"name": "wall_s", "better": "lower", "bound": 0.24}
HIGHER = {"name": "rate", "better": "higher", "bound": 0.10}
#: A tight parent: interquartile range 0.05 around a median of 10.
PARENT = [9.8, 9.9, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.1, 10.2]


def test_gain_needs_nine_of_ten_and_medians_apart():
    change = [v - 2.0 for v in PARENT]
    assert verdict(PARENT, change, LOWER) == (1.0, "gain")
    # One lost pair of ten still meets the 9/10 share.
    change[0] = 20.0
    assert verdict(PARENT, change, LOWER) == (0.9, "gain")
    # Two lost pairs do not.
    change[1] = 20.0
    assert verdict(PARENT, change, LOWER) == (0.8, "within bound")


def test_gain_for_a_higher_is_better_metric():
    change = [v + 2.0 for v in PARENT]
    assert verdict(PARENT, change, HIGHER) == (1.0, "gain")


def test_gain_needs_ten_pairs():
    parent, change = PARENT[:9], [v - 2.0 for v in PARENT[:9]]
    assert verdict(parent, change, LOWER) == (1.0, "within bound")


def test_gain_needs_medians_further_apart_than_parent_iqr():
    # Every pair won, but by less than the parent's quartile spread.
    change = [v - 0.03 for v in PARENT]
    share, text = verdict(PARENT, change, LOWER)
    assert share == 1.0 and text == "within bound"


def test_regression_beyond_the_bound():
    change = [v * 1.3 for v in PARENT]
    assert verdict(PARENT, change, LOWER) == (0.0, "regression")
    assert verdict(PARENT, [v * 0.8 for v in PARENT], HIGHER)[1] == \
        "regression"


def test_worse_but_within_bound():
    change = [v * 1.2 for v in PARENT]
    assert verdict(PARENT, change, LOWER) == (0.0, "within bound")


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    parent = [5.0, 7.0, 8.0, 9.0, 10.0, 10.0, 11.0, 12.0, 14.0, 15.0]
    change = [v - 1.0 for v in reversed(parent)]
    share, text = verdict(parent, change, LOWER)
    assert text == "unresolved" and share < 0.9
    # Unless every change run beats every parent run.
    assert verdict(parent, [1.0] * 10, LOWER)[1] == "gain"
    assert verdict(parent[:4], [1.0] * 4, LOWER)[1] == "within bound"


def test_ties_count_for_neither_side():
    assert verdict(PARENT, list(PARENT), LOWER) == (0.0, "within bound")
    change = list(PARENT)
    change[:5] = [v - 2.0 for v in PARENT[:5]]
    assert verdict(PARENT, change, LOWER)[0] == 0.5


@pytest.mark.parametrize("metric, delta", [(LOWER, -2.0), (HIGHER, 2.0)])
def test_no_gain_when_the_change_fails_a_larger_share(metric, delta):
    change = [v + delta for v in PARENT]
    assert verdict(PARENT, change, metric, (0.0, 0.0))[1] == "gain"
    assert verdict(PARENT, change, metric, (0.01, 0.01))[1] == "gain"
    assert verdict(PARENT, change, metric, (0.02, 0.01))[1] == "gain"
    share, text = verdict(PARENT, change, metric, (0.0, 0.001))
    assert share == 1.0 and text == "within bound"


def test_failed_share():
    assert perf_pairs.failed_share(0, 0) == 0.0
    assert perf_pairs.failed_share(3, 12) == 0.25


def test_every_run_gets_a_fresh_empty_pycache_prefix(tmp_path, monkeypatch):
    """Neither checkout's ``__pycache__`` state may move ``peak_rss_mb``:
    each invocation compiles into its own empty directory outside both
    checkouts."""
    seen = []

    def fake_run(cmd, cwd, env, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((prefix, sorted(os.listdir(prefix)), cwd, env))
        (prefix / "stale.pyc").write_text("")  # must not reach the next run
        return subprocess.CompletedProcess(
            cmd, 0, 'detail {"digest": "d"}\n{"correct": true}\n', "")

    monkeypatch.setattr(perf_pairs.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "shared"))
    args = type("Args", (), {"seed": 7, "seconds": 0.0, "scale": 0.05})
    trees = [tmp_path / "parent", tmp_path / "change"]
    for tree in trees + trees:
        assert perf_pairs.run_once(tree, "paper-ladder", args) == (
            {"correct": True}, "d")
    prefixes = [prefix for prefix, _files, _cwd, _env in seen]
    assert len(set(prefixes)) == 4
    for prefix, files, cwd, env in seen:
        assert files == []
        assert not any(prefix.is_relative_to(tree) for tree in trees)
        assert prefix != tmp_path / "shared"
        assert env["PATH"] == os.environ["PATH"]
