"""Lightweight nested spans, grafted across threads.

A :class:`span` context manager records wall time (``perf_counter``) and CPU
time (``process_time``) for one named stage and nests under whichever span is
active in the current :mod:`contextvars` context — asyncio tasks and threads
each see their own stack, so concurrent daemon flushes cannot interleave
trees.

Spans record when *either* of two switches is on:

- the global telemetry flag (:func:`repro.telemetry.metrics.enable`) — spans
  then also feed the ``repro_span_*`` metric families so per-stage build time
  shows up in Prometheus exposition; or
- a local :func:`capture_spans` collector — used by the daemon's
  slow-query log, which needs the span tree even when exposition is off.

When neither is on, entering a span is one function call returning a shared
:data:`NULL_SPAN`, so build-pipeline call sites stay unconditional.

A partitioned build sweeps its shards on pool threads, each in a copy of
the caller's context: a shard wraps its sweep in ``capture_spans(detach=True)``
and the caller grafts the captured trees into its live tree, in shard order,
with :func:`adopt_spans`.  Each span feeds the metric families once, when it
finishes, on whichever thread it ran.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional

from .metrics import STATE, registry

__all__ = [
    "NULL_SPAN",
    "Span",
    "adopt_spans",
    "capture_spans",
    "span",
    "tracing_active",
]


@dataclass
class Span:
    """One finished (or in-flight) stage: timings, attributes, children."""

    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)
    wall_ms: float = 0.0
    cpu_ms: float = 0.0
    children: List["Span"] = field(default_factory=list)

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-span (e.g. the resolved kernel)."""
        self.attrs.update(attrs)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe tree for the slow-query log."""
        return {
            "name": self.name,
            "attrs": {k: _jsonable(v) for k, v in self.attrs.items()},
            "wall_ms": round(self.wall_ms, 4),
            "cpu_ms": round(self.cpu_ms, 4),
            "children": [child.to_dict() for child in self.children],
        }

    def find(self, name: str) -> List["Span"]:
        """All descendants (including self) with the given name, preorder."""
        out = [self] if self.name == name else []
        for child in self.children:
            out.extend(child.find(name))
        return out


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class _NullSpan:
    """Shared do-nothing span handed out while tracing is off."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass


NULL_SPAN = _NullSpan()

_ACTIVE: ContextVar[Optional[Span]] = ContextVar("repro_active_span", default=None)
_SINK: ContextVar[Optional[List[Span]]] = ContextVar("repro_span_sink", default=None)

# Registered eagerly so the span families are present in exposition from the
# first scrape, before any build has run.
_SPAN_COUNT = registry().counter(
    "repro_span_total", "Finished telemetry spans by stage name", labelnames=("span",)
)
_SPAN_WALL = registry().counter(
    "repro_span_wall_seconds_total",
    "Cumulative wall time inside spans by stage name",
    labelnames=("span",),
)


def tracing_active() -> bool:
    """Whether entering a span right now would record anything."""
    return STATE.enabled or _SINK.get() is not None


class span:
    """Context manager recording one named stage; nests under the active span."""

    __slots__ = ("_name", "_attrs", "_record", "_token", "_wall0", "_cpu0")

    def __init__(self, _name: str, **attrs: Any) -> None:
        self._name = _name
        self._attrs = attrs
        self._record: Optional[Span] = None

    def __enter__(self) -> Any:
        if not (STATE.enabled or _SINK.get() is not None):
            return NULL_SPAN
        record = Span(self._name, dict(self._attrs))
        self._record = record
        self._token = _ACTIVE.set(record)
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return record

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        record = self._record
        if record is None:
            return
        record.wall_ms = (time.perf_counter() - self._wall0) * 1000.0
        record.cpu_ms = (time.process_time() - self._cpu0) * 1000.0
        if exc_type is not None:
            record.attrs.setdefault("error", exc_type.__name__)
        # Resetting the token restores whatever was active before us
        # (usually our parent); the record is what we attach upstream.
        _ACTIVE.reset(self._token)
        parent = _ACTIVE.get()
        if parent is not None:
            parent.children.append(record)
        else:
            sink = _SINK.get()
            if sink is not None:
                sink.append(record)
        if STATE.enabled:
            _SPAN_COUNT.labels(span=record.name).inc()
            _SPAN_WALL.labels(span=record.name).inc(record.wall_ms / 1000.0)


@contextmanager
def capture_spans(detach: bool = False) -> Iterator[List[Span]]:
    """Collect every top-level span finished inside the block into a list.

    Recording happens regardless of the global telemetry flag — this is the
    local switch the slow-query log uses.  ``detach=True`` additionally hides
    any currently-active span so spans inside the block root at the capture
    boundary instead of nesting upward (a shard sweep on a pool thread runs
    in a copy of the caller's context, under its live parent span, and its
    tree is grafted back in shard order via :func:`adopt_spans`).
    """
    sink: List[Span] = []
    sink_token = _SINK.set(sink)
    active_token = _ACTIVE.set(None) if detach else None
    try:
        yield sink
    finally:
        if active_token is not None:
            _ACTIVE.reset(active_token)
        _SINK.reset(sink_token)


def adopt_spans(spans: Iterable[Span]) -> None:
    """Graft spans finished elsewhere (a pool thread) into the live tree.

    Attaches to the active span if one exists, else to the active capture
    sink.  The adopted spans fed the ``repro_span_*`` families when they
    finished, so they are not counted again.
    """
    parent = _ACTIVE.get()
    if parent is not None:
        parent.children.extend(spans)
    else:
        sink = _SINK.get()
        if sink is not None:
            sink.extend(spans)
