"""Documentation quality gates.

Every public module, class, and function in the library must carry a
docstring — enforced here so the documentation deliverable cannot
silently rot.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


ALL_MODULES = sorted(_walk_modules())


class TestModuleDocstrings:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), (
            f"{module_name} lacks a module docstring")


class TestPublicApiDocstrings:
    def _public_members(self):
        for module_name in ALL_MODULES:
            module = importlib.import_module(module_name)
            exported = getattr(module, "__all__", None)
            if exported is None:
                continue
            for name in exported:
                obj = getattr(module, name, None)
                if obj is None:
                    continue
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    yield f"{module_name}.{name}", obj

    def test_every_exported_item_documented(self):
        undocumented = [
            qualname
            for qualname, obj in self._public_members()
            if not (obj.__doc__ and obj.__doc__.strip())
        ]
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_public_classes_document_public_methods(self):
        missing = []
        for qualname, obj in self._public_members():
            if not inspect.isclass(obj):
                continue
            for name, member in inspect.getmembers(obj):
                if name.startswith("_"):
                    continue
                if not (inspect.isfunction(member)
                        and member.__qualname__.startswith(obj.__name__)):
                    continue
                if not (member.__doc__ and member.__doc__.strip()):
                    missing.append(f"{qualname}.{name}")
        # Simple property-like accessors named like attributes get a
        # pass only if trivially short; everything else must be
        # documented.  Keep the bar strict: nothing may be missing.
        assert not missing, f"undocumented public methods: {missing}"


def _resolves(dotted: str) -> bool:
    """True when ``dotted`` names an importable module, or an attribute
    path under the longest importable prefix."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


class TestProjectDocs:
    def test_doc_references_resolve(self):
        """Every ``repro.…`` name and repo path the prose docs cite
        exists (``docs/PERF.md`` is a dated ledger and is skipped)."""
        docs = [ROOT / name for name in ("README.md", "DESIGN.md",
                                         "EXPERIMENTS.md")]
        docs += [p for p in sorted((ROOT / "docs").glob("*.md"))
                 if p.name != "PERF.md"]
        dotted = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
        path = re.compile(r"(?<![\w./-])"
                          r"(?:src|tests|benchmarks|docs|tools|examples)/"
                          r"[\w./*-]*")
        stale = []
        for doc in docs:
            text = doc.read_text()
            stale += [f"{doc.name}: {name}"
                      for name in sorted(set(dotted.findall(text)))
                      if not _resolves(name)]
            stale += [f"{doc.name}: {ref}"
                      for ref in sorted({m.rstrip(".")
                                         for m in path.findall(text)})
                      if not any(ROOT.glob(ref))]
        assert not stale, f"stale doc references: {stale}"

    def test_top_level_docs_exist(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            path = root / name
            assert path.exists(), f"{name} missing"
            assert len(path.read_text()) > 1000, f"{name} is a stub"

    def test_experiments_covers_every_figure(self):
        from pathlib import Path

        text = (Path(__file__).resolve().parent.parent
                / "EXPERIMENTS.md").read_text()
        for exp in ("EXP-F7", "EXP-F8", "EXP-F1", "EXP-M1", "EXP-M1b",
                    "EXP-M1c", "EXP-M2", "EXP-A1", "EXP-A2", "EXP-A3",
                    "EXP-A4", "EXP-A5", "EXP-A6", "EXP-A7"):
            assert exp in text, f"{exp} undocumented in EXPERIMENTS.md"

    def test_design_experiment_index_covers_benches(self):
        """Every bench file is referenced from DESIGN.md's index."""
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        design = (root / "DESIGN.md").read_text()
        for bench in sorted((root / "benchmarks").glob("test_bench_*.py")):
            if bench.name in ("test_bench_engine.py",
                              "test_bench_tracing.py",
                              "test_bench_routing.py",
                              "test_bench_selection.py"):
                continue  # performance guard, not a paper experiment
            assert bench.name in design, (
                f"{bench.name} missing from DESIGN.md's experiment index")
