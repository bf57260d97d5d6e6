"""The one build→observe→measure→summarize→persist path.

Every experiment — paper figures, throughput sweeps, ablations — runs
through :class:`Runner`: it resolves the registered definition,
expands the spec into independent measurement points, executes them
(serially, or fanned out over a ``multiprocessing`` pool with
``jobs > 1``), merges the results **deterministically by point
index**, and summarizes.  Every point builds its own network, and the
mapper computes that network's routes.

Parallel execution notes:

* Workers are forked (``fork`` start method), inheriting the
  experiment registry; on platforms without ``fork`` the runner falls
  back to serial execution.
* Point results are merged by index, so a parallel run returns
  byte-identical persisted documents to a serial run of the same spec
  (the simulation itself is deterministic).
* ``jobs`` only sets the pool width; scheduling order never affects
  the result.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.core.builder import BuiltNetwork, build_network
from repro.exp.registry import get_experiment
from repro.exp.spec import ExperimentSpec

__all__ = ["PointContext", "Runner", "RunReport", "check_metrics_out",
           "fork_map"]

#: Gauge sampling interval of an observed build (simulated ns).
SAMPLE_INTERVAL_NS = 1_000.0


class PointContext:
    """Per-point services the runner hands to ``measure``.

    ``ctx.build(...)`` is the uniform build path: it forwards to
    :func:`~repro.core.builder.build_network` and, when the spec asks
    for observation, attaches the full telemetry stack to the built
    network: a registry holding every NIC, fabric and channel metric,
    an engine :class:`~repro.obs.profiler.Profiler`, and a
    :class:`~repro.obs.sampler.Sampler` snapshotting the gauges every
    :data:`SAMPLE_INTERVAL_NS`.  :meth:`write_observations` writes each
    observed build's files once ``measure`` returns.
    """

    def __init__(self, spec: ExperimentSpec) -> None:
        self.spec = spec
        self._fabrics: list = []
        self._observed: list = []

    def build(self, topo: Any = None, **kwargs: Any) -> BuiltNetwork:
        """Build a network for this point through the single shared path."""
        if topo is None:
            topo = self.spec.topology
        net = build_network(topo, **kwargs)
        self._fabrics.append(net.fabric)
        if self.spec.observe:
            from repro.obs.attach import instrument_network

            telemetry = instrument_network(
                net, sample_interval_ns=SAMPLE_INTERVAL_NS, profile=True)
            self._observed.append((net.fabric, telemetry))
        return net

    def express_summary(self) -> dict:
        """Worm express-lane counters summed over this point's builds."""
        totals: dict[str, int] = {}
        for fabric in self._fabrics:
            for key, value in fabric.express_stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def span_dumps(self) -> list[str]:
        """Canonical span dumps of every traced build at this point.

        Empty unless span tracing is on (:func:`repro.obs.tracing.configure`
        installs the tracer factory the builder attaches per fabric).
        One JSON string per traced build, in build order.
        """
        dumps: list[str] = []
        for fabric in self._fabrics:
            tracer = getattr(fabric, "tracer", None)
            if tracer is not None:
                dumps.append(tracer.dump_json())
        return dumps

    def write_observations(self, metrics_out: str, point: int) -> None:
        """Write the files of every observed build at this point to
        ``metrics_out/p<point:03d>-b<build>/``, builds numbered in
        build order (see :func:`repro.obs.exporters.write_telemetry`).

        Stops each build's sampler and profiler; a traced build's
        critical-path breakdowns are observed into its registry first.
        """
        from repro.obs.critical_path import breakdown_dump, observe_breakdowns
        from repro.obs.exporters import write_telemetry

        for build, (fabric, telemetry) in enumerate(self._observed):
            telemetry.stop()
            tracer = fabric.tracer
            if tracer is not None:
                observe_breakdowns(breakdown_dump(tracer.spans),
                                   telemetry.registry)
            write_telemetry(Path(metrics_out) / f"p{point:03d}-b{build}",
                            telemetry, tracer)


@dataclass
class RunReport:
    """One executed experiment: spec, result, and execution metadata."""

    spec: ExperimentSpec
    result: Any
    n_points: int
    jobs: int
    elapsed_s: float
    #: Worm express-lane counters summed across every point (execution
    #: metadata — never part of the persisted result document).
    express: dict = field(default_factory=dict)
    #: Canonical span dumps (one JSON string per traced build), merged
    #: in point order — identical for serial and parallel runs.
    span_dumps: list = field(default_factory=list)
    saved_to: Optional[str] = None


def fork_map(fn: Callable[[Any], Any], items: Sequence[Any],
             jobs: int) -> list:
    """``[fn(item) for item in items]`` over a pool of forked workers.

    The package's one process pool: :class:`Runner` fans experiment
    points out through it.  Workers are forked, so they inherit the
    parent's module state (the experiment registry) copy-on-write;
    ``fn`` must be a module-level function and every item and result
    must pickle.
    ``pool.map`` returns results in input order, so callers merge by
    index, never by completion.  Runs serially in this process with
    ``jobs == 1``, a single item, or no ``fork`` start method.
    """
    if (jobs < 2 or len(items) < 2
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [fn(item) for item in items]
    with multiprocessing.get_context("fork").Pool(
            processes=min(jobs, len(items))) as pool:
        return pool.map(fn, items)


def _measure_point(payload: tuple[ExperimentSpec, int, dict, Optional[str]]
                   ) -> tuple[int, Any, dict, list]:
    """Evaluate one point (entry point for pool workers and the serial
    path alike, so both execute the exact same code).  An observed
    point writes its builds' files here, in the worker that measured
    it."""
    spec, index, point, metrics_out = payload
    exp = get_experiment(spec.experiment)
    ctx = PointContext(spec)
    value = exp.measure(spec, point, ctx)
    if metrics_out is not None:
        ctx.write_observations(metrics_out, index)
    return index, value, ctx.express_summary(), ctx.span_dumps()


def check_metrics_out(metrics_out: str) -> None:
    """Raise ``ValueError`` unless ``metrics_out`` is absent or an
    empty directory: an earlier run's build directories would mix with
    this run's."""
    out = Path(metrics_out)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise ValueError(
            f"metrics_out {metrics_out!r} is not an empty directory; an"
            " earlier run's files would mix with this run's")


class Runner:
    """Executes :class:`ExperimentSpec`\\ s through the shared pipeline:
    the one way to run a registered experiment.  Build the spec from
    ``get_experiment(name).default_spec().replace(...)``."""

    def run(
        self,
        spec: ExperimentSpec,
        jobs: int = 1,
        save: Optional[str] = None,
        metrics_out: Optional[str] = None,
    ) -> RunReport:
        """Run one experiment end to end.

        Parameters
        ----------
        spec:
            The spec to run.
        jobs:
            Process-pool width; ``1`` (default) runs serially.  Results
            are independent of this value.
        save:
            Optional path; the summarized result is persisted as a
            spec-keyed JSON document via
            :func:`repro.harness.persist.save_results`.
        metrics_out:
            Optional directory; observes the run (sets
            ``spec.observe``), and the worker that measures a point
            writes each of its builds' telemetry files to
            ``metrics_out/p<point:03d>-b<build>/``.

        Raises ``ValueError`` when ``jobs < 1``, when the spec expands
        to no points or lacks a ``params`` key its experiment reads,
        when ``metrics_out`` exists and is not an empty directory, or
        when ``spec.observe`` is set without a ``metrics_out``.  Every
        check runs before the first point.
        """
        exp = get_experiment(spec.experiment)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if metrics_out is not None:
            check_metrics_out(metrics_out)
            spec = spec.replace(observe=True)
        elif spec.observe:
            raise ValueError(
                "spec.observe needs a metrics_out directory for the"
                " observed builds' files")

        t0 = time.perf_counter()
        try:
            points = exp.points(spec)
        except KeyError as exc:
            raise ValueError(
                f"{spec.experiment!r} spec lacks params key {exc}; start"
                f" from get_experiment({spec.experiment!r}).default_spec()"
            ) from exc
        if not points:
            raise ValueError(
                f"{spec.experiment!r} spec expands to no points (is a grid"
                " field such as sizes or rates empty?); start from"
                f" get_experiment({spec.experiment!r}).default_spec()")
        if metrics_out is not None:
            Path(metrics_out).mkdir(parents=True, exist_ok=True)
        payloads = [(spec, i, p, metrics_out) for i, p in enumerate(points)]
        outcomes = fork_map(_measure_point, payloads, jobs)

        # Deterministic merge: results ordered by point index.
        outcomes.sort(key=lambda item: item[0])
        values = [value for _i, value, _ex, _sp in outcomes]
        span_dumps = [d for _i, _v, _ex, dumps in outcomes for d in dumps]
        express = {"hits": 0, "fallbacks": 0, "stepped_hops": 0}
        for _i, _value, ex, _sp in outcomes:
            for key, v in ex.items():
                express[key] = express.get(key, 0) + v

        result = exp.summarize(spec, values)
        report = RunReport(
            spec=spec,
            result=result,
            n_points=len(points),
            jobs=jobs,
            elapsed_s=time.perf_counter() - t0,
            express=express,
            span_dumps=span_dumps,
        )
        if save:
            from repro.harness.persist import save_results

            path = save_results(save, {spec.experiment: result},
                                specs={spec.experiment: spec})
            report.saved_to = str(path)
        return report

