"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the complete, picklable, JSON-able
description of one experiment run: which registered experiment, on
what topology, with which firmware/routing, which timing model, which
seeds, and the measurement grid (size ladder, load grid, kernel list).
The runner derives everything else — the independent measurement
points, the builds, the summary — from the spec, so a spec plus the
code version fully determines the result (the determinism tests
assert byte-identical persisted documents for identical specs).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.timings import Timings

__all__ = ["ExperimentSpec"]


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that defines one experiment run.

    Not every experiment consumes every field (a latency ladder has no
    load grid; a load sweep has no size ladder); each registered
    experiment documents which fields it reads.  Free-form extras ride
    in ``params``.

    Attributes
    ----------
    experiment:
        Registered experiment name (``repro list`` shows them).
    topology:
        ``"fig6"``, ``"fig1"``, or ``"random"`` (an irregular COW of
        ``n_switches`` generated from ``topo_seed``).
    firmware / routing:
        Firmware kind on every NIC and mapper routing policy.
    timings:
        Optional :class:`~repro.core.timings.Timings` override.
    seed / topo_seed / traffic_seed:
        Master host-noise seed, topology-generator seed, and workload
        seed.
    sizes / iterations:
        Message-size ladder and per-size iteration count (latency
        experiments).
    rates / routings / duration_ns / warmup_ns / packet_size:
        Offered-load grid, compared routings, and traffic window
        (throughput experiments).
    kernels / message_size:
        Communication kernels and message size (application kernels).
    n_switches / hosts_per_switch / switch_links:
        Random-topology shape.
    root:
        Optional spanning-tree root override.
    observe:
        Whether the run was observed: the full telemetry stack
        (registry, sampler, profiler) attached to every built network,
        each build's files written under a directory.  The runner sets
        it exactly when ``Runner.run`` gets a ``metrics_out`` directory
        (``repro run <exp> --metrics-out DIR``).  Observing changes no
        result.
    params:
        Free-form experiment-specific extras (JSON-able values only).
    """

    experiment: str
    topology: str = "fig6"
    firmware: str = "itb"
    routing: str = "updown"
    timings: Optional[Timings] = None
    seed: int = 2001
    topo_seed: int = 11
    traffic_seed: int = 7
    sizes: tuple[int, ...] = ()
    iterations: int = 100
    rates: tuple[float, ...] = ()
    routings: tuple[str, ...] = ("updown", "itb")
    duration_ns: float = 300_000.0
    warmup_ns: float = 30_000.0
    packet_size: int = 512
    kernels: tuple[str, ...] = ()
    message_size: int = 1024
    n_switches: int = 16
    hosts_per_switch: int = 1
    switch_links: int = 3
    root: Optional[int] = None
    observe: bool = False
    params: dict = field(default_factory=dict)

    def replace(self, **overrides: Any) -> "ExperimentSpec":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **overrides)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-able document that :meth:`from_dict` round-trips."""
        doc: dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "timings":
                value = None if value is None else dataclasses.asdict(value)
            elif isinstance(value, tuple):
                value = list(value)
            doc[f.name] = value
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        kw = dict(doc)
        timings = kw.get("timings")
        if timings is not None:
            kw["timings"] = Timings(**timings)
        for name in ("sizes", "rates", "routings", "kernels"):
            if name in kw and kw[name] is not None:
                kw[name] = tuple(kw[name])
        return cls(**kw)
