"""Per-layer host self time for the traced benchmark run.

Two sources feed one self-time stack (:class:`SelfTimer`):

* :class:`LayerProfiler`, a subclass of the public
  :class:`repro.obs.profiler.Profiler`, times every calendar dispatch.
  A dispatch that steps a process is charged to the layer of that
  process (its ``kind[instance]`` name, see :func:`process_bucket`); a
  bare callback that steps none — express worm landings, GM retransmit
  timers, fault events — is charged to the layer of the module that
  defined the callback (:func:`module_bucket`).
* Wrappers around public functions and methods (:data:`WRAPPERS`),
  installed by :func:`install_wrappers` for the traced repeats only.

Every frame's self time is its duration minus the time of the frames
opened inside it, so nothing is counted twice and the bucket totals add
up to the host time spent inside any frame.  Buckets are
``<layer>`` or ``<layer>.<slice>``; :func:`layer_totals` folds slices
into their layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Callable

from repro.obs.profiler import Profiler, component_kind

__all__ = [
    "LayerProfiler",
    "SelfTimer",
    "UNATTRIBUTED",
    "WRAPPERS",
    "install_wrappers",
    "layer_totals",
    "module_bucket",
    "process_bucket",
    "wrapper_key",
]

#: Process kinds (``send[host1]`` -> ``send``) and the bucket they run in.
PROCESS_BUCKETS = {
    "send": "mcp",
    "sdma": "mcp",
    "recv": "mcp",
    "itbfwd": "mcp",
    "gmsend": "gm",
    "gmrecv": "gm",
    "pinger": "gm",
    "ponger": "gm",
    "itb-reselect": "gm.mapper",
    "inject": "harness",
}

#: Defining-module prefixes of bare callbacks, most specific first.
MODULE_BUCKETS = (
    ("repro.network.worm", "network.worm"),
    ("repro.gm.mapper", "gm.mapper"),
    ("repro.sim.", "sim"),
    ("repro.network.", "network"),
    ("repro.mcp.", "mcp"),
    ("repro.nic.", "mcp"),
    ("repro.gm.", "gm"),
    ("repro.routing.", "routing"),
    ("repro.topology.", "topology"),
    ("repro.core.", "core"),
    ("repro.obs.", "obs"),
    ("repro.harness.", "harness"),
)

#: Bucket for host time the benchmark cannot place in a layer.
UNATTRIBUTED = "unattributed"

#: ``(owner, attribute, bucket, workload)``: wrap ``owner.attribute`` and
#: charge its self time to ``bucket``.  ``owner`` is ``module`` or
#: ``module:Class``; a function imported by name into another module is
#: wrapped where the caller looks it up.  ``workload`` names one
#: workload that must call it (the self-test checks this, which catches
#: a wrapper installed on a name nobody calls).
WRAPPERS = (
    ("repro.sim.engine:Simulator", "run", "sim", "uniform-16sw"),
    ("repro.sim.engine:Simulator", "run_until_event", "sim", "paper-ladder"),
    ("repro.network.worm:Worm", "launch", "network.worm", "uniform-16sw"),
    ("repro.network.fabric:Fabric", "flight_plan", "network.claims",
     "uniform-16sw"),
    ("repro.network.fabric:Fabric", "select_lanes", "network.claims",
     "uniform-16sw"),
    ("repro.network.fabric:Fabric", "claim_horizon", "network.claims",
     "uniform-16sw"),
    ("repro.network.fabric:Fabric", "register_claims", "network.claims",
     "uniform-16sw"),
    ("repro.network.fabric:Fabric", "release_claims", "network.claims",
     "uniform-16sw"),
    ("repro.harness.faultcamp", "install_fault_plan", "network", "gm-faults"),
    ("repro.mcp.firmware:Firmware", "host_send", "mcp", "uniform-16sw"),
    ("repro.mcp.firmware:Firmware", "on_header", "mcp", "paper-ladder"),
    ("repro.mcp.firmware:Firmware", "on_complete", "mcp", "paper-ladder"),
    ("repro.mcp.firmware:ItbFirmware", "on_header", "mcp", "uniform-16sw"),
    ("repro.mcp.firmware:ItbFirmware", "on_complete", "mcp", "uniform-16sw"),
    ("repro.gm.host:GmHost", "send", "gm", "paper-ladder"),
    ("repro.gm.host:GmHost", "receive", "gm", "gm-faults"),
    ("repro.core.builder", "run_mapper", "gm.mapper", "build-128sw"),
    ("repro.gm.mapper", "remap_tables", "gm.mapper", "gm-faults"),
    ("repro.gm.mapper:ItbReselector", "__init__", "gm.mapper",
     "hotspot-adaptive-32sw"),
    ("repro.gm.mapper:ItbReselector", "reselect", "gm.mapper",
     "hotspot-adaptive-32sw"),
    ("repro.gm.mapper", "build_orientation", "routing.orientation",
     "build-128sw"),
    ("repro.gm.mapper", "build_route_tables", "routing.tables",
     "build-128sw"),
    ("repro.routing.selectors:Selector", "__call__", "routing",
     "hotspot-adaptive-32sw"),
    ("repro.topology.generators", "random_irregular", "topology",
     "build-128sw"),
    ("repro.harness.adaptive", "random_irregular", "topology",
     "hotspot-adaptive-32sw"),
    ("repro.core.builder", "fig6_testbed", "topology", "paper-ladder"),
    ("repro.obs.attach", "instrument_network", "obs",
     "hotspot-adaptive-32sw"),
    ("repro.obs.attach", "attach_congestion_view", "obs",
     "hotspot-adaptive-32sw"),
    ("repro.obs.attach:RegistryCongestionView", "host_load", "obs",
     "hotspot-adaptive-32sw"),
    ("repro.obs.tracing:SpanTracer", "sample", "obs", "uniform-16sw"),
    ("repro.obs.tracing:SpanTracer", "begin", "obs", "gm-faults"),
    ("repro.obs.tracing:Span", "close", "obs", "gm-faults"),
    ("repro.obs.tracing:PacketTrace", "begin", "obs", "uniform-16sw"),
    ("repro.obs.tracing:PacketTrace", "finish", "obs", "uniform-16sw"),
    ("repro.harness.fig7", "fig6_paths", "harness", "paper-ladder"),
    ("repro.harness.fig8", "fig6_paths", "harness", "paper-ladder"),
    ("repro.harness.adaptive", "busiest_default_itb_host", "harness",
     "hotspot-adaptive-32sw"),
)


def wrapper_key(owner: str, attribute: str) -> str:
    """The name a wrapper's hits are counted under."""
    return f"{owner}.{attribute}"


def process_bucket(name: str) -> str:
    """Bucket of a simulator process, from its name."""
    if name.startswith("worm"):  # worm<N>, worm<N>-gated, worm<N>-demoted
        return "network.worm"
    kind = component_kind(name)
    if kind.startswith("fc-"):  # the fault campaign's senders and receivers
        return "harness"
    return PROCESS_BUCKETS.get(kind, UNATTRIBUTED)


def module_bucket(module: str) -> str:
    """Bucket of a bare callback, from the module that defined it."""
    for prefix, bucket in MODULE_BUCKETS:
        if module.startswith(prefix):
            return bucket
    return UNATTRIBUTED


def layer_totals(self_s: dict) -> dict:
    """Fold ``layer.slice`` buckets into per-layer totals."""
    out: dict = defaultdict(float)
    for bucket, seconds in self_s.items():
        out[bucket.split(".", 1)[0]] += seconds
    return dict(out)


class SelfTimer:
    """A stack of open frames that accumulates self time per bucket.

    A frame is ``[start_ns, child_ns]``; closing it charges
    ``duration - child_ns`` to its bucket and adds its duration to the
    enclosing frame's ``child_ns``.
    """

    def __init__(self) -> None:
        self.stack: list[list[int]] = []
        self.self_ns: defaultdict = defaultdict(int)
        self.hits: Counter = Counter()

    def open(self) -> list[int]:
        """Open a frame; the caller must :meth:`close` it."""
        frame = [time.perf_counter_ns(), 0]
        self.stack.append(frame)
        return frame

    def close(self, frame: list[int], bucket: str) -> None:
        """Close the innermost frame and charge its self time."""
        dt = time.perf_counter_ns() - frame[0]
        stack = self.stack
        stack.pop()
        self.self_ns[bucket] += dt - frame[1]
        if stack:
            stack[-1][1] += dt

    def call(self, bucket: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a frame charged to ``bucket``."""
        frame = self.open()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(frame, bucket)

    def take(self) -> dict:
        """Self seconds per bucket since the last take; resets them."""
        out = {b: ns / 1e9 for b, ns in self.self_ns.items()}
        self.self_ns.clear()
        return out


def _wrap(timer: SelfTimer, fn: Callable, bucket: str, key: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        timer.hits[key] += 1
        return timer.call(bucket, fn, *args, **kwargs)

    return wrapper


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


def install_wrappers(timer: SelfTimer) -> Callable[[], None]:
    """Wrap every :data:`WRAPPERS` entry; returns the undo function."""
    undo: list[tuple[object, str, object]] = []
    for owner, attribute, bucket, _workload in WRAPPERS:
        target = _resolve_owner(owner)
        original = target.__dict__[attribute]
        undo.append((target, attribute, original))
        setattr(target, attribute,
                _wrap(timer, original, bucket, wrapper_key(owner, attribute)))

    def restore() -> None:
        for target, attribute, original in reversed(undo):
            setattr(target, attribute, original)

    return restore


class LayerProfiler(Profiler):
    """Engine profiler that charges each dispatch to a layer bucket.

    Keeps the base class's ``events_total``; the per-component tables
    are replaced by frames on the shared :class:`SelfTimer`.
    """

    def __init__(self, timer: SelfTimer) -> None:
        super().__init__()
        self.timer = timer
        self._by_process: dict[str, str] = {}
        self._by_module: dict[str, str] = {}

    def dispatch(self, callback: Callable[[], None]) -> None:
        self.events_total += 1
        self._current = None
        frame = self.timer.open()
        try:
            callback()
        finally:
            name = self._current
            if name is not None:
                bucket = self._by_process.get(name)
                if bucket is None:
                    bucket = self._by_process[name] = process_bucket(name)
            else:
                module = getattr(callback, "__module__", None) or ""
                bucket = self._by_module.get(module)
                if bucket is None:
                    bucket = self._by_module[module] = module_bucket(module)
            self._current = None
            self.timer.close(frame, bucket)
