"""Generic parameter sweeps.

Experiments beyond the fixed figure set — sensitivity studies over
timing constants, topology parameters, or load knobs — all reduce to
"run a function over the cartesian product of parameter values and
tabulate".  :func:`sweep` does exactly that, deterministically, with
optional progress callbacks, crash isolation per point, and opt-in
parallel evaluation (``jobs > 1``) that merges results by point index
so parallel and serial sweeps tabulate identically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

__all__ = ["SweepPoint", "SweepResult", "sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated parameter combination."""

    params: dict
    value: Any = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepResult:
    """All evaluated points plus tabulation helpers."""

    axes: dict
    points: list[SweepPoint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def failures(self) -> list[SweepPoint]:
        return [p for p in self.points if not p.ok]

    def values(self, **fixed: Any) -> list[Any]:
        """Values of points matching the ``fixed`` parameter subset."""
        out = []
        for p in self.points:
            if p.ok and all(p.params.get(k) == v for k, v in fixed.items()):
                out.append(p.value)
        return out

    def best(self, key: Callable[[Any], float],
             maximize: bool = True) -> SweepPoint:
        """The point whose value optimizes ``key``."""
        ok_points = [p for p in self.points if p.ok]
        if not ok_points:
            raise ValueError("sweep produced no successful points")
        chooser = max if maximize else min
        return chooser(ok_points, key=lambda p: key(p.value))

    def table_rows(
        self, extract: Callable[[Any], Sequence[Any]]
    ) -> list[Sequence[Any]]:
        """Rows of (param values..., extracted values...) per point."""
        keys = list(self.axes)
        rows = []
        for p in self.points:
            cells = [p.params[k] for k in keys]
            if p.ok:
                cells.extend(extract(p.value))
            else:
                cells.append(f"ERROR: {p.error}")
            rows.append(tuple(cells))
        return rows


def _evaluate(fn: Callable[..., Any], params: dict, fixed: dict,
              isolate_errors: bool) -> SweepPoint:
    """Evaluate one parameter combination into a :class:`SweepPoint`."""
    try:
        return SweepPoint(params=params, value=fn(**params, **fixed))
    except Exception as exc:
        if not isolate_errors:
            raise
        return SweepPoint(params=params, error=repr(exc))


def _evaluate_payload(payload: tuple) -> SweepPoint:
    """Pool-worker entry point (module-level so it pickles)."""
    fn, params, fixed, isolate_errors = payload
    return _evaluate(fn, params, fixed, isolate_errors)


def sweep(
    fn: Callable[..., Any],
    axes: Mapping[str, Sequence[Any]],
    fixed: Optional[Mapping[str, Any]] = None,
    on_point: Optional[Callable[[SweepPoint], None]] = None,
    isolate_errors: bool = False,
    jobs: int = 1,
) -> SweepResult:
    """Evaluate ``fn(**params)`` over the cartesian product of ``axes``.

    Parameters
    ----------
    fn:
        The experiment; receives one keyword per axis plus ``fixed``.
    axes:
        Ordered mapping of parameter name -> values (iteration order is
        the cartesian product in the mapping's key order).
    fixed:
        Extra keyword arguments passed to every call.
    on_point:
        Progress callback invoked after each evaluation (with
        ``jobs > 1`` it fires in the parent, in point order, after the
        pool drains).
    isolate_errors:
        When True, an exception in one point is recorded on that
        point instead of aborting the sweep.
    jobs:
        Process-pool width; ``1`` (default) evaluates serially.
        Points are independent by construction, results are merged by
        point index, and the simulation is deterministic, so the
        tabulated result does not depend on ``jobs`` (``fn`` must be
        picklable — a module-level function — to fan out).
    """
    if not axes:
        raise ValueError("sweep needs at least one axis")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    fixed = dict(fixed or {})
    for k in fixed:
        if k in axes:
            raise ValueError(f"parameter {k!r} is both an axis and fixed")
    result = SweepResult(axes=dict(axes))
    names = list(axes)
    combos = [dict(zip(names, combo))
              for combo in itertools.product(*(axes[k] for k in names))]
    if jobs > 1:
        # The experiment runner's fork pool; its map keeps input order,
        # so the merge is by point index.
        from repro.exp.runner import fork_map

        payloads = [(fn, params, fixed, isolate_errors) for params in combos]
        for point in fork_map(_evaluate_payload, payloads, jobs):
            result.points.append(point)
            if on_point is not None:
                on_point(point)
    else:
        for params in combos:
            point = _evaluate(fn, params, fixed, isolate_errors)
            result.points.append(point)
            if on_point is not None:
                on_point(point)
    return result
