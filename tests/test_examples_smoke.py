"""Smoke tests: every example script runs and exits cleanly.

Each example takes well under a second with the arguments below, so
all of them run on every test invocation.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = [
    ("quickstart.py", []),
    ("buffer_pool_reliability.py", []),
    ("reproduce_paper.py", []),
    ("irregular_cluster.py", ["--switches", "8"]),
    ("network_discovery.py", ["--switches", "4"]),
    ("diagnostics_tour.py", []),
]


def run_example(name: str, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True, text=True, timeout=600,
    )


class TestExamplesExist:
    def test_at_least_three_examples(self):
        scripts = sorted(EXAMPLES_DIR.glob("*.py"))
        assert len(scripts) >= 3
        assert (EXAMPLES_DIR / "quickstart.py").exists()

    def test_every_example_has_a_docstring(self):
        for script in EXAMPLES_DIR.glob("*.py"):
            text = script.read_text()
            assert '"""' in text.split("\n", 3)[-1] or \
                text.lstrip().startswith(('"""', '#!')), script.name

    def test_every_example_is_run(self):
        listed = {name for name, _ in EXAMPLES}
        assert listed == {p.name for p in EXAMPLES_DIR.glob("*.py")}


@pytest.mark.parametrize("name,args", EXAMPLES, ids=[n for n, _ in EXAMPLES])
def test_example_runs(name, args):
    result = run_example(name, args)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"
