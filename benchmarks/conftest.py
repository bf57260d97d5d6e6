"""Benchmark configuration.

Each benchmark regenerates one of the paper's figures (or an ablation)
and prints the series the paper reports, alongside the paper's own
numbers, then asserts the reproduction *shape* (who wins, rough
factor, trend) still holds.

Two sizes:

* default — quick settings, seconds for the whole suite, which runs in
  tier-1 (``testpaths`` in ``pyproject.toml``);
* ``REPRO_FULL=1`` — paper-scale settings (100 iterations, the full
  gm_allsize ladder, 64-switch throughput runs).

``benchmarks/perf`` is the perf ledger, not a paper-shape benchmark:
tier-1 leaves it out, and ``pytest benchmarks/perf`` runs its
self-test.
"""

from __future__ import annotations

import os

import pytest

collect_ignore = ["perf"]


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL", "0") == "1"


@pytest.fixture(scope="session")
def scale():
    """Benchmark scale knobs derived from REPRO_FULL."""
    if full_scale():
        return {
            "sizes": (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
            "iterations": 100,
            "throughput_switches": (8, 16, 32, 64),
            "throughput_rates": (0.01, 0.02, 0.04, 0.06, 0.08, 0.12, 0.16),
            "throughput_duration": 300_000.0,
        }
    return {
        "sizes": (16, 128, 1024, 4096),
        "iterations": 20,
        "throughput_switches": (8, 16),
        "throughput_rates": (0.02, 0.06, 0.12),
        "throughput_duration": 150_000.0,
    }
