"""The simulator's runtime needs numpy only.

networkx is a test oracle (``pip install -e .[dev]``), never a runtime
import.  ``multiprocessing`` is imported only by the experiment
runner's process pool, so a bare build and simulation never load it.
Harness modules measure and only the runner runs experiments, so the
harness modules the perf workloads import load neither ``repro.exp``
nor ``multiprocessing``.  Other tests import all of these into this
pytest process, so the check runs the runtime in a fresh interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

from repro.core.builder import build_network
from repro.core.config import NetworkConfig
from repro.routing.cdg import is_deadlock_free
from repro.topology.generators import random_irregular


def assert_not_loaded(package):
    loaded = sorted(name for name in sys.modules
                    if name.split(".")[0] == package)
    assert not loaded, loaded[:5]


net = build_network("fig6")
result = net.ping_pong("host1", "host2", size=64, iterations=3, warmup=1)
assert len(result.half_rtt_ns) == 3 and result.min_ns > 0, result
assert_not_loaded("multiprocessing")

fabric = build_network(random_irregular(16, seed=3, hosts_per_switch=2),
                       config=NetworkConfig(firmware="itb", routing="itb"))
routes = [route for nic in fabric.nics.values()
          for route in nic.route_table.entries.values()]
assert len(routes) == 32 * 31, len(routes)
assert any(len(route.segments) > 1 for route in routes)  # ITB splits
assert is_deadlock_free(fabric.topo, routes)

assert_not_loaded("multiprocessing")
assert_not_loaded("networkx")

# What benchmarks/perf/workloads.py imports of the harness.
import repro.harness.adaptive
import repro.harness.faultcamp
import repro.harness.fig7
import repro.harness.fig8
import repro.harness.paper_claims
import repro.harness.throughput
import repro.harness.workloads

assert_not_loaded("multiprocessing")
loaded = sorted(name for name in sys.modules
                if name == "repro.exp" or name.startswith("repro.exp."))
assert not loaded, loaded
print("ok")
"""


def test_runtime_imports_no_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.strip() == "ok"
