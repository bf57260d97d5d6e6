"""Causal span tracing across the GM/ITB stack.

One :class:`SpanTracer` follows every sampled GM message through its
full lifecycle — ``gm_send`` → window wait → NIC send queue → wire
worm (per switch hop, express or stepped) → ITB ejection → ITB buffer
residency → re-injection → receive → ack — as a tree of
:class:`Span` records sharing a trace id.  Retransmissions appear as
retry-child spans under the first attempt; worms cut by fault
injection close with status ``"killed"``.

Design constraints (see ``docs/TRACING.md``):

* **Zero-cost when disabled.**  The tracer attaches as
  ``fabric.tracer`` (``None`` by default); every instrumentation point
  in the core modules is a single attribute read plus an ``is None``
  check.  The core modules never import this module — they drive the
  tracer through duck-typed method calls — so the import graph of the
  simulation stays unchanged.
* **Deterministic.**  Trace/span ids are sequential integers assigned
  in creation order; :meth:`SpanTracer.dump_json` serializes with
  sorted keys and no whitespace, so identical runs produce
  byte-identical dumps (the ``--jobs`` determinism suite relies on
  this).
* **Lane-agnostic.**  The express and stepped worm lanes record the
  same spans with bit-identical timestamps (the express lane replays
  the stepped clock); :func:`tree_signature` canonicalizes a span
  forest for equivalence assertions that ignore id assignment order.

Sampling: :meth:`SpanTracer.sample` admits every ``sample_every``-th
message (1 = all, 0 = none); unsampled packets carry no trace context
and skip every instrumentation point.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, Optional, Union

__all__ = [
    "PacketTrace",
    "Span",
    "SpanTracer",
    "configure",
    "configured_sample_every",
    "disable",
    "load_dump",
    "span_tree",
    "tree_signature",
    "waterfall_lines",
]


class Span:
    """One timed node of a trace tree.

    ``end`` is ``None`` while open; :meth:`close` is idempotent (the
    first close wins), so teardown paths may close defensively.
    """

    __slots__ = ("tracer", "trace_id", "span_id", "parent_id", "name",
                 "component", "start", "end", "status", "attrs")

    def __init__(self, tracer: "SpanTracer", trace_id: int, span_id: int,
                 parent_id: Optional[int], name: str, component: str,
                 start: float, attrs: dict) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.component = component
        self.start = start
        self.end: Optional[float] = None
        self.status = "open"
        self.attrs = attrs

    def close(self, t: float, status: str = "ok") -> None:
        """Close the span at time ``t`` (no-op when already closed)."""
        if self.end is None:
            self.end = t
            self.status = status

    @property
    def duration_ns(self) -> float:
        """Span duration (``nan`` while open)."""
        return float("nan") if self.end is None else self.end - self.start

    def to_dict(self) -> dict:
        """JSON-serializable record (stable field set)."""
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "component": self.component,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Span {self.trace_id}/{self.span_id} {self.name}"
                f" [{self.start}, {self.end}) {self.status}>")


class PacketTrace:
    """Per-packet trace context carried on a ``TransitPacket``.

    Bundles the message root span, this attempt's span, and a dict of
    currently open sub-spans keyed by a stage name, so the firmware
    can open a stage at one state machine and close it at another
    without threading span objects through every call.
    """

    __slots__ = ("tracer", "root", "attempt", "open")

    def __init__(self, tracer: "SpanTracer", root: Optional[Span],
                 attempt: Span) -> None:
        self.tracer = tracer
        self.root = root
        self.attempt = attempt
        self.open: dict[str, Span] = {}

    def begin(self, name: str, t: float, component: str = "",
              key: Optional[str] = None, parent: Optional[Span] = None,
              **attrs: Any) -> Span:
        """Open a child span of this attempt, registered under ``key``
        (defaults to ``name``) for a later :meth:`finish`."""
        span = self.tracer.begin(
            name, t, parent=parent if parent is not None else self.attempt,
            component=component, **attrs)
        self.open[key if key is not None else name] = span
        return span

    def finish(self, key: str, t: float, status: str = "ok"
               ) -> Optional[Span]:
        """Close and drop the open span under ``key`` (no-op if absent)."""
        span = self.open.pop(key, None)
        if span is not None:
            span.close(t, status)
        return span


class SpanTracer:
    """Collects spans for one simulation run.

    Attach as ``fabric.tracer`` *before* traffic; the GM host, the
    firmware, and the worm all discover it through the fabric.
    """

    def __init__(self, sample_every: int = 1) -> None:
        self.sample_every = int(sample_every)
        self.spans: list[Span] = []
        self._next_trace = 0
        self._next_span = 0
        self._messages_seen = 0

    # -- recording ---------------------------------------------------------

    def sample(self) -> bool:
        """Sampling decision for the next message root."""
        n = self.sample_every
        if n <= 0:
            return False
        self._messages_seen += 1
        return (self._messages_seen - 1) % n == 0

    def begin(self, name: str, t: float, parent: Optional[Span] = None,
              component: str = "", **attrs: Any) -> Span:
        """Open a span; ``parent=None`` starts a new trace."""
        if parent is None:
            self._next_trace += 1
            trace_id = self._next_trace
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        self._next_span += 1
        span = Span(self, trace_id, self._next_span, parent_id, name,
                    component, t, attrs)
        self.spans.append(span)
        return span

    def end(self, span: Span, t: float, status: str = "ok") -> None:
        """Close ``span`` (idempotent, mirrors :meth:`Span.close`)."""
        span.close(t, status)

    def packet(self, root: Optional[Span], attempt: Span) -> PacketTrace:
        """Build the per-packet context carried on a TransitPacket."""
        return PacketTrace(self, root, attempt)

    def open_message(self, t: float, component: str,
                     **attrs: Any) -> PacketTrace:
        """Open the root pair of a send made below the GM host layer.

        A ``message`` root carrying ``attrs`` and its one ``attempt``
        (``seq`` 0, no retry, last packet), both at ``t`` on
        ``component``.  With no GM host to close the root, the caller
        closes it at the packet's final disposition.
        """
        root = self.begin("message", t, component=component, **attrs)
        attempt = self.begin("attempt", t, parent=root, component=component,
                             seq=0, retry=0, last=True)
        return PacketTrace(self, root, attempt)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def roots(self) -> list[Span]:
        """Root spans (one per trace), in creation order."""
        return [s for s in self.spans if s.parent_id is None]

    def spans_of(self, trace_id: int) -> list[Span]:
        """Every span of one trace, in creation order."""
        return [s for s in self.spans if s.trace_id == trace_id]

    # -- serialization -----------------------------------------------------

    def to_dump(self) -> dict:
        """The whole span set as a JSON-serializable document."""
        return {
            "format": "repro-spans/1",
            "sample_every": self.sample_every,
            "n_traces": self._next_trace,
            "spans": [s.to_dict() for s in self.spans],
        }

    def dump_json(self) -> str:
        """Canonical (byte-stable) JSON serialization of the dump."""
        return json.dumps(self.to_dump(), sort_keys=True,
                          separators=(",", ":"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SpanTracer {len(self.spans)} spans,"
                f" {self._next_trace} traces>")


# ---------------------------------------------------------------------------
# module-level configuration (inherited by forked runner workers)
# ---------------------------------------------------------------------------

#: When not ``None``, every network built through
#: :func:`repro.core.builder.build_network` gets a fresh tracer with
#: this sampling interval.  Module-level so ``fork``-pool workers of
#: the experiment runner inherit it.
_configured_sample_every: Optional[int] = None


def _tracer_factory() -> SpanTracer:
    return SpanTracer(sample_every=_configured_sample_every or 1)


def configure(sample_every: int = 1) -> None:
    """Enable tracing for every subsequently built network.

    Installs a tracer factory on the network builder; forked runner
    workers inherit the setting.  ``sample_every`` traces every Nth
    message (1 = all).
    """
    global _configured_sample_every
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    _configured_sample_every = int(sample_every)
    from repro.core import builder

    builder.tracer_factory = _tracer_factory


def disable() -> None:
    """Disable builder-level tracing (networks get ``tracer=None``)."""
    global _configured_sample_every
    _configured_sample_every = None
    from repro.core import builder

    builder.tracer_factory = None


def configured_sample_every() -> Optional[int]:
    """The active builder-level sampling interval (None = disabled)."""
    return _configured_sample_every


# ---------------------------------------------------------------------------
# dump loading and tree canonicalization
# ---------------------------------------------------------------------------


def load_dump(source: Union[str, bytes, dict]) -> list[dict]:
    """Span dicts from a dump document (JSON text or parsed dict)."""
    doc = json.loads(source) if isinstance(source, (str, bytes)) else source
    if not isinstance(doc, dict) or doc.get("format") != "repro-spans/1":
        found = doc.get("format") if isinstance(doc, dict) else None
        raise ValueError(f"not a span dump: format={found!r}")
    return list(doc["spans"])


def _as_dict(span: Union[Span, dict]) -> dict:
    return span.to_dict() if isinstance(span, Span) else span


def span_tree(spans: Iterable[Union[Span, dict]]) -> list[dict]:
    """Nest spans into parent→children trees (returns the roots).

    Each node is the span dict plus a ``"children"`` list sorted by
    ``(start, name)`` — id assignment order never matters.
    """
    nodes = [dict(_as_dict(s), children=[]) for s in spans]
    by_id = {n["span"]: n for n in nodes}
    roots = []
    for n in nodes:
        parent = by_id.get(n["parent"])
        if parent is None:
            roots.append(n)
        else:
            parent["children"].append(n)
    def _sort(children: list[dict]) -> None:
        children.sort(key=lambda n: (n["start"], n["name"],
                                     json.dumps(n["attrs"], sort_keys=True)))
        for child in children:
            _sort(child["children"])
    _sort(roots)
    return roots


def tree_signature(spans: Iterable[Union[Span, dict]]) -> tuple:
    """A canonical, id-free signature of a span forest.

    Two runs that produced the same spans — same names, components,
    times, statuses, attrs, and parent/child structure — have equal
    signatures even when span ids were assigned in a different order
    (e.g. same-instant completions draining in a different calendar
    order).  The worm express/stepped equivalence suite compares
    these.
    """
    def _node_sig(node: dict) -> tuple:
        return (
            node["name"], node["component"], node["start"], node["end"],
            node["status"],
            tuple(sorted((k, node["attrs"][k]) for k in node["attrs"])),
            tuple(_node_sig(c) for c in node["children"]),
        )
    return tuple(_node_sig(root) for root in span_tree(spans))


def waterfall_lines(roots: list[dict], width: int = 44) -> list[str]:
    """Render span trees (from :func:`span_tree`) as an ASCII waterfall.

    One row per span, depth-first: ``name | bar | duration``, with the
    name indented by depth.  The bar's position and length map the
    span onto the window from the earliest start to the latest end, so
    queue waits, wire time, cut-through overlap and retransmission
    gaps are visible at a glance; an open span runs to the window's
    end, and a status other than ``ok`` is noted after the duration.
    """
    flat: list[tuple[dict, int]] = []

    def _walk(node: dict, depth: int) -> None:
        flat.append((node, depth))
        for child in node["children"]:
            _walk(child, depth + 1)

    for root in roots:
        _walk(root, 0)
    t0 = min(n["start"] for n, _ in flat)
    t1 = max(n["end"] if n["end"] is not None else n["start"]
             for n, _ in flat)
    window = max(t1 - t0, 1e-9)
    lines = []
    for node, depth in flat:
        end = node["end"] if node["end"] is not None else t1
        a = min(int((node["start"] - t0) / window * width), width - 1)
        b = min(max(int((end - t0) / window * width), a + 1), width)
        label = ("  " * depth + node["name"])[:26].ljust(26)
        bar = (" " * a + "#" * (b - a)).ljust(width)
        note = "" if node["status"] == "ok" else f"  [{node['status']}]"
        lines.append(
            f"{label}|{bar}| {(end - node['start']) / 1000.0:9.3f} us{note}")
    return lines


#: Signature of the callable installed on the builder by configure().
TracerFactory = Callable[[], SpanTracer]
