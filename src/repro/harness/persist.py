"""Persist experiment results to JSON.

Long experiments (paper-scale Figure 7/8 series, 64-switch throughput
sweeps) are worth keeping: this module serializes the harness result
dataclasses to plain JSON and back, so EXPERIMENTS.md refreshes and
cross-run comparisons do not require re-simulation.

Serialization is generic: every registered result kind is a dataclass
tree, encoded field-by-field (:func:`to_document`) and rebuilt from
its type hints (:func:`from_document`) — adding a new experiment means
one ``_RESULT_KINDS`` entry, not a hand-written ``_X_to_dict`` pair.
Documents are spec-keyed: when the experiment runner persists a run it
stores the full :class:`~repro.exp.spec.ExperimentSpec` beside the
result, so a saved file is a complete, reproducible description of
what was measured.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from pathlib import Path
from typing import Any, Optional, Union

from repro.harness.ablations import (AblationLoadResult,
                                     BufferPoolStudyResult,
                                     TimingSweepResult)
from repro.harness.adaptive import AdaptiveItbResult
from repro.harness.apps import AppsResult
from repro.harness.faultcamp import FaultCampaignResult
from repro.harness.fig7 import Fig7Result
from repro.harness.fig8 import Fig8Result
from repro.harness.root_study import RootStudyResult
from repro.harness.scale_study import ScaleStudyResult
from repro.harness.throughput import ThroughputResult
from repro.harness.vcstudy import VcStudyResult

__all__ = ["from_document", "load_results", "save_results", "to_document"]

_FORMAT_VERSION = 2

#: kind name -> result dataclass; the single registry the generic
#: codec needs (both directions are derived from it).
_RESULT_KINDS: dict[str, type] = {
    "adaptive-itb": AdaptiveItbResult,
    "fault-campaign": FaultCampaignResult,
    "fig7": Fig7Result,
    "fig8": Fig8Result,
    "throughput": ThroughputResult,
    "apps": AppsResult,
    "root-study": RootStudyResult,
    "ablation-load": AblationLoadResult,
    "ablation-bufpool": BufferPoolStudyResult,
    "ablation-timing": TimingSweepResult,
    "vc-study": VcStudyResult,
    "scale-study": ScaleStudyResult,
}

_KIND_BY_TYPE = {cls: kind for kind, cls in _RESULT_KINDS.items()}


def to_document(obj: Any) -> Any:
    """Recursively encode a result dataclass tree as JSON-able values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_document(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [to_document(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_document(v) for k, v in obj.items()}
    if hasattr(obj, "item") and callable(obj.item):  # numpy scalar
        return obj.item()
    return obj


def _rebuild(hint: Any, value: Any) -> Any:
    """Rebuild one field value according to its type hint."""
    if value is None:
        return None
    origin = typing.get_origin(hint)
    if origin is Union:
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if len(args) == 1:
            return _rebuild(args[0], value)
        return value
    if origin in (list, tuple) and isinstance(value, list):
        args = typing.get_args(hint)
        item_hint = args[0] if args else Any
        items = [_rebuild(item_hint, v) for v in value]
        return tuple(items) if origin is tuple else items
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        return from_document(hint, value)
    return value


def from_document(cls: type, doc: dict) -> Any:
    """Rebuild a dataclass tree encoded by :func:`to_document`.

    Nested dataclasses are reconstructed from ``cls``'s resolved type
    hints, so every registered result kind round-trips losslessly.
    """
    hints = typing.get_type_hints(cls)
    kwargs = {
        f.name: _rebuild(hints.get(f.name, Any), doc[f.name])
        for f in dataclasses.fields(cls)
        if f.name in doc
    }
    return cls(**kwargs)


def save_results(
    path: Union[str, Path],
    results: dict,
    extra: Optional[dict] = None,
    specs: Optional[dict] = None,
) -> Path:
    """Write named results (and optionally their specs) to JSON.

    ``results`` maps a name (e.g. ``"fig7"``) to a registered result
    object; unsupported values raise.  ``specs`` optionally maps the
    same names to the :class:`~repro.exp.spec.ExperimentSpec` that
    produced each result (the experiment runner passes these).
    ``extra`` is stored verbatim (must be JSON-serializable).
    """
    payload: dict[str, Any] = {"format_version": _FORMAT_VERSION,
                               "results": {}, "extra": extra or {}}
    for name, result in results.items():
        kind = _KIND_BY_TYPE.get(type(result))
        if kind is None:
            raise TypeError(
                f"cannot persist {type(result).__name__}; supported:"
                f" {[c.__name__ for c in _KIND_BY_TYPE]}"
            )
        payload["results"][name] = {"kind": kind,
                                    "data": to_document(result)}
    if specs:
        payload["specs"] = {name: spec.to_dict()
                            for name, spec in specs.items()}
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_results(path: Union[str, Path]) -> dict:
    """Read results back, rehydrating every kind into its dataclass.

    Returns ``{name: result, ..., "extra": {...}}``; when the file
    carries specs, they come back under ``"specs"`` as rebuilt
    :class:`~repro.exp.spec.ExperimentSpec` objects.
    """
    payload = json.loads(Path(path).read_text())
    if payload.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported results format {payload.get('format_version')!r}")
    out: dict[str, Any] = {"extra": payload.get("extra", {})}
    for name, blob in payload["results"].items():
        kind = blob["kind"]
        cls = _RESULT_KINDS.get(kind)
        if cls is None:
            raise ValueError(f"unknown result kind {kind!r}")
        out[name] = from_document(cls, blob["data"])
    if payload.get("specs"):
        from repro.exp.spec import ExperimentSpec

        out["specs"] = {name: ExperimentSpec.from_dict(doc)
                        for name, doc in payload["specs"].items()}
    return out
