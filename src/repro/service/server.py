"""Asyncio serving daemon: micro-batching, admission control, degradation.

:class:`ServingDaemon` stands the library's serving layer up as a process:
newline-delimited JSON over TCP (stdlib only — no web framework), one
query in the wire form of :class:`~repro.service.protocol.QueryRequest` per
line in, one :class:`~repro.service.protocol.QueryResponse` per line out.
Three mechanisms make it a serving tier rather than a socket wrapper:

* **Request coalescing.**  Queries against one target that are admitted
  before their flush runs share one :class:`~repro.service.queries.QueryBatch`
  and one :class:`~repro.service.engine.BatchQueryEngine` call.  The flush
  runs ``window_ms`` after the batch's first query; at the default of 0 that
  is the next event-loop turn, so an idle daemon answers at once and, under
  load, a batch is every request that queued in the socket buffers while the
  previous flush ran.  A flush encodes its replies in one pass and writes
  once per connection.

* **Admission control.**  The pending-queue depth is bounded
  (``max_pending`` across all targets) and every connection has an in-flight
  cap (``max_inflight_per_client``).  Beyond either limit the daemon answers
  ``overloaded`` immediately instead of queueing without bound: latency for
  admitted queries stays flat and the rejection is explicit, retryable
  signal rather than a hang.

* **Degradation ladder.**  A query is served from the freshest state that
  exists: a cached engine (hot), else the synopsis re-resolved through the
  :class:`~repro.service.store.SynopsisStore` — whose own LRU may have
  degraded the entry to a disk/mmap hit — else, when even the store misses
  (and ``build_on_miss`` is off, the default: a loaded daemon must not
  block its event loop on a dynamic program), an explicit ``unavailable``
  rejection.  Nothing on the query path ever waits on a rebuild it did not
  ask for.

Shutdown is graceful: :meth:`ServingDaemon.stop` stops accepting, flushes
every pending query immediately, waits for the replies to drain and only
then closes connections.

Intake is per read, not per line: the read loop takes what the socket has
buffered (at most :data:`MAX_LINE_BYTES`), splits it into lines, and parses
and validates each well-formed query inline, appending its id, kind code,
start and end to its target's pending columns; no ``QueryRequest`` is built
on that path.  Any other line takes the per-line path (:meth:`_dispatch`),
which owns every error and control reply.  A connection's admitted queries
are answered before the daemon closes it, at EOF or on an oversized line.

Flushes and replies run synchronously on the event loop, which keeps batch
composition deterministic under test.  The read loop awaits ``drain()``
once per read, so a client that stops reading stalls only itself.

Each event is counted once, in the daemon's own registry
(:attr:`ServingDaemon.metrics`): the ``metrics`` op renders it, and the
``stats`` op and :attr:`ServingDaemon.stats` are a view of it.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..core.spec import SynopsisSpec
from ..exceptions import ProtocolError, SynopsisError, VersionMismatchError
from .. import telemetry
from ..telemetry import (
    Counter,
    Gauge,
    MetricsRegistry,
    RateLimiter,
    capture_spans,
    get_logger,
    log_event,
    render_prometheus,
    span,
)
from .engine import BatchQueryEngine
from .protocol import (
    _REQUEST_FIELDS,
    MIN_PROTOCOL_VERSION,
    OP_INFO,
    OP_METRICS,
    OP_PING,
    OP_QUERY,
    OP_SHUTDOWN,
    OP_STATS,
    PROTOCOL_VERSION,
    STATUS_ERROR,
    STATUS_OVERLOADED,
    STATUS_UNAVAILABLE,
    WIRE_OPS,
    QueryRequest,
    RequestId,
    encode_responses,
    error_response,
    parse_request_line,
    request_id_of,
    # Not called here: perfbench's per-layer timers wrap this module attribute.
    responses_for,  # noqa: F401
)
from .queries import _KIND_CODES, POINT, QueryBatch
from .store import SynopsisStore, fingerprint_data

__all__ = ["DaemonConfig", "ServingDaemon", "ServingStats", "DEFAULT_PORT"]

#: Default TCP port for ``repro-synopses serve`` (any free port via 0).
DEFAULT_PORT = 7209

#: Longest request line the daemon reads (asyncio's default stream limit),
#: and the most one read takes in.  A longer line is answered with an
#: ``error`` and its connection closed.
MAX_LINE_BYTES = 64 * 1024

_QUERY_FIELDS = frozenset(_REQUEST_FIELDS)

#: The longest :meth:`ServingDaemon.stop` waits for open connections' replies
#: to drain, and then for their handlers to exit: a client that never reads
#: holds shutdown no longer than this.
DRAIN_TIMEOUT_SECONDS = 10.0

#: The ``repro_daemon_requests_total`` child counting lines that name no known
#: op: unparseable, an unknown op, or oversized.
_INVALID_OP = "invalid"

#: The daemon family each ``stats`` key reads and, for a labelled family, the
#: one child it reads (``None`` sums every child).
_STATS_SOURCES: Dict[str, Tuple[str, Optional[str]]] = {
    "connections": ("repro_daemon_connections_total", None),
    "requests": ("repro_daemon_requests_total", None),
    "queries_answered": ("repro_daemon_queries_answered_total", None),
    "engine_batches": ("repro_daemon_engine_batches_total", None),
    "coalesced_queries": ("repro_daemon_coalesced_queries_total", None),
    "largest_batch": ("repro_daemon_largest_batch", None),
    "overloaded": ("repro_daemon_admission_rejections_total", None),
    "unavailable": ("repro_daemon_errors_total", "unavailable"),
    "protocol_errors": ("repro_daemon_errors_total", "protocol"),
    "version_rejections": ("repro_daemon_errors_total", "version"),
    "invalid_queries": ("repro_daemon_errors_total", "invalid_query"),
    "internal_errors": ("repro_daemon_errors_total", "internal"),
    "engine_cache_hits": ("repro_daemon_ladder_total", "hot"),
    "engine_store_resolutions": ("repro_daemon_ladder_total", "store"),
    "engine_builds": ("repro_daemon_ladder_total", "build"),
    "engine_evictions": ("repro_daemon_engine_evictions_total", None),
    "drained_queries": ("repro_daemon_drained_queries_total", None),
}


def _query_fields(payload: Any) -> Optional[Tuple[RequestId, int, int, int, Optional[str]]]:
    """``(id, kind code, start, end, target)`` of a well-formed query, else ``None``.

    Accepts exactly the parsed lines without an ``op`` key that
    ``QueryRequest.from_dict`` accepts.  Exact-type checks suffice, and they
    exclude bools: JSON produces only exact ``dict``, ``int`` and ``str``
    values.  Everything else takes the per-line path, which owns every error
    reply and its text.
    """
    if type(payload) is not dict or "op" in payload or not payload.keys() <= _QUERY_FIELDS:
        return None
    version = payload.get("version")
    request_id = payload.get("id")
    kind = payload.get("kind")
    start = payload.get("start")
    end = payload.get("end")
    target = payload.get("target")
    if (
        type(version) is int and MIN_PROTOCOL_VERSION <= version <= PROTOCOL_VERSION
        and (type(request_id) is int or type(request_id) is str)
        and type(kind) is str and kind in _KIND_CODES
        and type(start) is int and type(end) is int and 0 <= start <= end
        and (start == end or kind != POINT)
        and (target is None or type(target) is str)
    ):
        return request_id, _KIND_CODES[kind], start, end, target
    return None


@dataclass(frozen=True)
class DaemonConfig:
    """Tunables for :class:`ServingDaemon`, validated at construction.

    ``window_ms`` delays a batch's flush past its first query, trading
    latency for coalescing (0, the default, flushes on the next event-loop
    turn); ``max_pending`` / ``max_inflight_per_client`` are the
    admission-control limits; ``max_batch`` flushes a batch early once
    enough queries have coalesced; ``max_engines`` bounds the hot engine
    cache (evicted targets degrade to a store re-resolution);
    ``build_on_miss`` decides the bottom rung of the degradation ladder
    (rebuild synchronously vs. reject with ``unavailable``);
    ``allow_remote_shutdown`` honours the wire ``shutdown`` op;
    ``slow_query_ms`` (``None`` = off) is the forensics threshold
    — any flush whose wall time reaches it emits one structured JSON record
    (query, coalesced batch size, degradation-ladder rung, span tree) on the
    ``repro.daemon.slow_query`` logger.
    """

    window_ms: float = 0.0
    max_pending: int = 1024
    max_inflight_per_client: int = 64
    max_batch: int = 4096
    max_engines: int = 8
    build_on_miss: bool = False
    allow_remote_shutdown: bool = False
    slow_query_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.window_ms < 0:
            raise SynopsisError("the micro-batching window must be non-negative")
        for name in ("max_pending", "max_inflight_per_client", "max_batch", "max_engines"):
            if int(getattr(self, name)) <= 0:
                raise SynopsisError(f"{name} must be positive")
        if self.slow_query_ms is not None and self.slow_query_ms < 0:
            raise SynopsisError("slow_query_ms must be non-negative (or None to disable)")


class ServingStats:
    """What the daemon has served (the ``stats`` op): a read-only view.

    Each key is an attribute that reads one instrument of the daemon's
    registry (see :data:`_STATS_SOURCES`), so ``stats`` and ``metrics`` agree
    by construction.  ``engine_batches`` vs. ``queries_answered`` is the
    coalescing story: their ratio is the average batch the engine amortised
    one evaluation over.  ``overloaded`` / ``unavailable`` count explicit
    rejections (admission control and the degradation-ladder bottom
    respectively), and the ``engine_*`` counters break down which rung of the
    ladder resolved each engine lookup.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry

    def __getattr__(self, key: str) -> int:
        if key not in _STATS_SOURCES:
            raise AttributeError(f"{type(self).__name__!r} has no attribute {key!r}")
        name, label = _STATS_SOURCES[key]
        family = self._registry.get(name)
        assert isinstance(family, (Counter, Gauge))
        return int(sum(child.value for labels, child in family.samples()
                       if label is None or label in labels.values()))

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {key: getattr(self, key) for key in _STATS_SOURCES}
        batches = payload["engine_batches"]
        payload["coalescing_factor"] = (
            payload["queries_answered"] / batches if batches else None
        )
        return payload


@dataclass(eq=False)
class _Connection:
    """One client: its writer and its count of admitted, unanswered queries."""

    writer: asyncio.StreamWriter
    inflight: int = 0

    def write(self, data: bytes) -> None:
        """Queue ``data`` on the transport, unless the client has gone."""
        if not self.writer.is_closing():
            self.writer.write(data)

    def send(self, payload: Mapping[str, Any]) -> None:
        """One JSON line, encoded as ``QueryResponse.to_json`` encodes."""
        self.write((json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8"))

    def reject(self, request_id: Any, detail: str, status: str = STATUS_ERROR) -> None:
        """An error response echoing ``request_id`` when it is a valid id."""
        if isinstance(request_id, bool) or not isinstance(request_id, (int, str)):
            request_id = None
        self.send(error_response(request_id, detail, status=status).to_dict())


class _PendingQueries:
    """One target's admitted queries as columns, in admission order.

    ``payloads`` holds each query's parsed line for the slow-query record.
    """

    __slots__ = ("ids", "kinds", "starts", "ends", "connections", "payloads")

    def __init__(self) -> None:
        self.ids: List[RequestId] = []
        self.kinds: List[int] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.connections: List[_Connection] = []
        self.payloads: List[Dict[str, Any]] = []


class ServingDaemon:
    """The asyncio synopsis-serving daemon (see the module docstring).

    Parameters
    ----------
    data:
        The probabilistic model (or frequency vector) the synopses
        summarise; needed to warm targets through the store and to compute
        per-item expected errors for attribution.
    store:
        The :class:`~repro.service.store.SynopsisStore` fronting the builds
        (its LRU/disk behaviour *is* the middle of the degradation ladder).
    targets:
        ``name -> SynopsisSpec`` for every synopsis this daemon serves.
        Each spec must name a single budget (no sweeps).
    """

    def __init__(
        self,
        data: Any,
        store: SynopsisStore,
        targets: Mapping[str, SynopsisSpec],
        *,
        config: Optional[DaemonConfig] = None,
        default_target: Optional[str] = None,
    ):
        if not targets:
            raise SynopsisError("the daemon needs at least one target spec to serve")
        for name, spec in targets.items():
            if spec.is_sweep:
                raise SynopsisError(
                    f"target {name!r} declares a budget sweep; serve one budget per target"
                )
        self._data = data
        self._store = store
        self._targets: Dict[str, SynopsisSpec] = dict(targets)
        self._default_target = default_target or next(iter(self._targets))
        if self._default_target not in self._targets:
            raise SynopsisError(f"default target {self._default_target!r} is not a target")
        self._config = config or DaemonConfig()
        self._fingerprint = fingerprint_data(data)
        # Every daemon event is counted once, here.  Labelled children are
        # resolved up front so no hot path calls labels().
        self.metrics = reg = MetricsRegistry()
        self.stats = ServingStats(reg)
        self._m_connections = reg.counter(
            "repro_daemon_connections_total", "TCP connections accepted"
        )
        requests = reg.counter(
            "repro_daemon_requests_total",
            "Wire requests dispatched, by op (invalid: lines naming no known op)",
            labelnames=("op",),
        )
        self._m_requests = {op: requests.labels(op=op) for op in (*WIRE_OPS, _INVALID_OP)}
        self._m_queries = reg.counter(
            "repro_daemon_queries_answered_total", "Queries answered with status ok"
        )
        self._m_batches = reg.counter(
            "repro_daemon_engine_batches_total", "Coalesced engine flushes executed"
        )
        self._m_coalesced = reg.counter(
            "repro_daemon_coalesced_queries_total",
            "Queries answered in an engine flush of more than one query",
        )
        self._m_largest_batch = reg.gauge(
            "repro_daemon_largest_batch", "Most queries answered by one engine flush"
        )
        self._m_batch_size = reg.histogram(
            "repro_daemon_batch_size",
            "Queries coalesced into one engine flush",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
        )
        self._m_flush_ms = reg.histogram(
            "repro_daemon_flush_latency_ms", "Wall time of one coalesced flush"
        )
        rejections = reg.counter(
            "repro_daemon_admission_rejections_total",
            "Queries rejected by admission control, by reason",
            labelnames=("reason",),
        )
        self._m_rejections = {reason: rejections.labels(reason=reason)
                              for reason in ("draining", "inflight", "pending")}
        ladder = reg.counter(
            "repro_daemon_ladder_total",
            "Engine resolutions by degradation-ladder rung",
            labelnames=("rung",),
        )
        self._m_ladder = {rung: ladder.labels(rung=rung)
                          for rung in ("hot", "store", "build", "unavailable")}
        errors = reg.counter(
            "repro_daemon_errors_total",
            "Requests answered with an error, by cause (internal and unavailable "
            "count queries)",
            labelnames=("cause",),
        )
        self._m_errors = {
            cause: errors.labels(cause=cause)
            for cause in ("protocol", "version", "invalid_query", "internal", "unavailable")
        }
        self._m_evictions = reg.counter(
            "repro_daemon_engine_evictions_total", "Hot engines evicted by the LRU cap"
        )
        self._m_pending = reg.gauge(
            "repro_daemon_pending_queries", "Queries admitted and waiting for their flush"
        )
        self._m_slow = reg.counter(
            "repro_daemon_slow_queries_total",
            "Flushes at or above the slow_query_ms threshold",
        )
        self._m_drained = reg.counter(
            "repro_daemon_drained_queries_total",
            "Pending queries flushed at once by a graceful shutdown",
        )
        self._log = get_logger("daemon")
        self._slow_log = get_logger("daemon.slow_query")
        self._overload_limiter = RateLimiter(interval_seconds=1.0)
        self._engines: "OrderedDict[str, BatchQueryEngine]" = OrderedDict()
        self._errors: Dict[str, np.ndarray] = {}
        self._domain_sizes: Dict[str, int] = {}
        self._pending: Dict[str, _PendingQueries] = {}
        self._pending_total = 0
        self._flush_handles: Dict[str, asyncio.TimerHandle] = {}
        self._stop_task: Optional["asyncio.Task[None]"] = None
        self._handler_tasks: Set["asyncio.Task[None]"] = set()
        self._connections: Set[_Connection] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._address: Optional[Tuple[str, int]] = None
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._warmed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> DaemonConfig:
        """The daemon's (frozen) tunables."""
        return self._config

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; raises until :meth:`start` ran."""
        if self._address is None:
            raise SynopsisError("the daemon is not listening; call start() first")
        return self._address

    @property
    def targets(self) -> Dict[str, SynopsisSpec]:
        """The served ``name -> spec`` map (a copy)."""
        return dict(self._targets)

    def info(self) -> Dict[str, Any]:
        """The ``info`` op payload: targets, limits and schema version."""
        return {
            "op": OP_INFO,
            "version": PROTOCOL_VERSION,
            "default_target": self._default_target,
            "window_ms": self._config.window_ms,
            "max_pending": self._config.max_pending,
            "max_inflight_per_client": self._config.max_inflight_per_client,
            "targets": {
                name: {
                    "kind": spec.kind,
                    "budget": spec.budgets[0],
                    "metric": spec.metric.describe(),
                    "domain_size": self._domain_sizes.get(name),
                }
                for name, spec in self._targets.items()
            },
        }

    # ------------------------------------------------------------------
    # Warm-up and the engine degradation ladder
    # ------------------------------------------------------------------
    def warm(self) -> None:
        """Build (or fetch) every target through the store, once, up front.

        Also computes each target's per-item expected errors, which every
        answer's attributed error is read from; the vectors are kept
        independently of the engine cache so an engine rebuilt after LRU
        eviction keeps its attribution without re-running the exact
        evaluation.
        """
        if self._warmed:
            return
        from ..evaluation.errors import per_item_expected_errors

        for name, spec in self._targets.items():
            synopsis = self._store.get_or_build(
                self._data, spec, fingerprint=self._fingerprint
            )
            self._domain_sizes[name] = synopsis.domain_size
            self._errors[name] = per_item_expected_errors(
                self._data, synopsis, spec.metric, workload=spec.workload
            )
            self._cache_engine(
                name,
                BatchQueryEngine(
                    synopsis, per_item_errors=self._errors[name], metric=spec.metric
                ),
            )
        self._warmed = True

    def _cache_engine(self, name: str, engine: BatchQueryEngine) -> None:
        self._engines[name] = engine
        self._engines.move_to_end(name)
        while len(self._engines) > self._config.max_engines:
            evicted, _ = self._engines.popitem(last=False)
            self._m_evictions.inc()
            log_event(
                self._log, logging.INFO, "daemon.engine_evicted",
                target=evicted, max_engines=self._config.max_engines,
            )

    def _resolve_engine(self, name: str) -> Tuple[Optional[BatchQueryEngine], str]:
        """``(engine, rung)`` for ``name`` via the degradation ladder.

        Hot cache (``"hot"``) -> store re-resolution (``"store"``; the
        store's own memory LRU may degrade this to a disk/mmap hit) ->
        optional synchronous rebuild (``"build"``) -> ``(None,
        "unavailable")`` (the caller answers ``unavailable``).  The rung is
        counted per resolution and carried into the slow-query log.
        """
        engine = self._engines.get(name)
        if engine is not None:
            self._engines.move_to_end(name)
            self._m_ladder["hot"].inc()
            return engine, "hot"
        spec = self._targets[name]
        synopsis = self._store.get(spec.store_key(self._fingerprint))
        if synopsis is not None:
            rung = "store"
        elif self._config.build_on_miss:
            synopsis = self._store.get_or_build(
                self._data, spec, fingerprint=self._fingerprint
            )
            rung = "build"
        else:
            self._m_ladder["unavailable"].inc()
            return None, "unavailable"
        self._m_ladder[rung].inc()
        engine = BatchQueryEngine(
            synopsis, per_item_errors=self._errors.get(name), metric=spec.metric
        )
        self._cache_engine(name, engine)
        return engine, rung

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Warm the targets and start listening; returns the bound address.

        ``port=0`` binds an ephemeral port (tests, CI) — read the actual one
        from the return value or :attr:`address`.
        """
        if self._server is not None:
            raise SynopsisError("the daemon is already listening")
        # A listening daemon is the canonical telemetry producer: turn span
        # and engine-latency recording on so its builds and flushes reach the
        # process-wide families of the `metrics` op.
        telemetry.enable()
        self.warm()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, host, port, limit=MAX_LINE_BYTES
        )
        sockets = self._server.sockets or []
        if not sockets:  # pragma: no cover - start_server always binds or raises
            raise SynopsisError("the daemon failed to bind a socket")
        bound = sockets[0].getsockname()
        self._address = (str(bound[0]), int(bound[1]))
        log_event(
            self._log, logging.INFO, "daemon.listen",
            host=self._address[0], port=self._address[1],
            targets=sorted(self._targets), window_ms=self._config.window_ms,
            max_pending=self._config.max_pending,
        )
        return self._address

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop` has fully drained and shut down."""
        if self._stopped is None:
            raise SynopsisError("the daemon is not listening; call start() first")
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, flush, drain, close.

        Every query already admitted is answered — pending batches are
        flushed immediately rather than waiting for their scheduled flush,
        and the daemon waits (bounded by :data:`DRAIN_TIMEOUT_SECONDS`) for
        every open connection's replies to drain before closing connections.
        """
        if self._draining:
            if self._stopped is not None:
                await self._stopped.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        log_event(
            self._log, logging.INFO, "daemon.drain",
            pending=self._pending_total, connections=len(self._connections),
        )
        drained = self._pending_total
        for name in list(self._pending):
            self._flush_now(name)
        self._m_drained.inc(drained)
        connections = list(self._connections)
        drains = asyncio.gather(
            *(connection.writer.drain() for connection in connections), return_exceptions=True
        )
        # A client that never reads its replies holds shutdown for
        # DRAIN_TIMEOUT_SECONDS at most.
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(drains, timeout=DRAIN_TIMEOUT_SECONDS)
        for connection in connections:
            connection.writer.close()
        # Closing the transports EOFs the readers; wait for the connection
        # handlers to notice and exit so loop teardown finds no stray tasks.
        if self._handler_tasks:
            await asyncio.wait(list(self._handler_tasks), timeout=DRAIN_TIMEOUT_SECONDS)
        if self._server is not None:
            await self._server.wait_closed()
        log_event(
            self._log, logging.INFO, "daemon.shutdown",
            drained_queries=drained,
            queries_answered=self.stats.queries_answered,
            connections=self.stats.connections,
        )
        if self._stopped is not None:
            self._stopped.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._m_connections.inc()
        connection = _Connection(writer=writer)
        self._connections.add(connection)
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        # The line begun but not yet ended, one piece per read: it is joined
        # once, when it ends, so a line trickled in over many reads costs time
        # linear in its length.
        pieces: List[bytes] = []
        held = 0
        try:
            while True:
                chunk = await reader.read(MAX_LINE_BYTES)
                if not chunk:
                    # EOF: an unterminated last line is still a request.
                    self._take_in([b"".join(pieces)], connection)
                    break
                pieces.append(chunk)
                held += len(chunk)
                lines: List[bytes] = []
                if b"\n" in chunk:
                    *lines, last = b"".join(pieces).split(b"\n")
                    pieces = [last] if last else []
                    held = len(last)
                # Only a line begun in an earlier read can be longer than one read.
                if (len(lines[0]) if lines else held) > MAX_LINE_BYTES:
                    # Answer once and hang up.  Reading to the end of the line
                    # first makes the close a FIN: closing with unread input
                    # would reset the connection and could lose the answer.
                    self._reject_invalid(
                        connection, None, f"request line exceeds {MAX_LINE_BYTES} bytes"
                    )
                    if not lines:
                        while (chunk := await reader.read(MAX_LINE_BYTES)) and b"\n" not in chunk:
                            pass
                    break
                if lines:
                    self._take_in(lines, connection)
                    # Returns at once unless this client's unread replies are
                    # over the transport's high-water mark: then the client is
                    # not read until it catches up, and other connections are
                    # unaffected.
                    await writer.drain()
            # A closed transport drops writes, so answer what this client has
            # in flight before hanging up rather than at its scheduled flush.
            for target in [name for name, pending in self._pending.items()
                           if connection in pending.connections]:
                self._flush_now(target)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            self._connections.discard(connection)
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    def _take_in(self, lines: List[bytes], connection: _Connection) -> None:
        """Admit one read's lines, in order.

        A well-formed query is parsed, validated and admitted inline; any
        other line goes down the per-line path.  The query counter and the
        pending gauge are published once per read, and also before each
        per-line dispatch, so a ``metrics`` or ``stats`` reply within a read
        counts every query ahead of it.
        """
        queries = 0
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
                payload = None
            fields = _query_fields(payload)
            if fields is None:
                self._publish_intake(queries)
                queries = 0
                self._dispatch(line, connection)
            else:
                queries += 1
                self._admit(connection, *fields, payload)
        self._publish_intake(queries)

    def _publish_intake(self, queries: int) -> None:
        if queries:
            self._m_requests[OP_QUERY].inc(queries)
        self._m_pending.set(self._pending_total)

    def _dispatch(self, line: bytes, connection: _Connection) -> None:
        try:
            payload = parse_request_line(line)
        except ProtocolError as exc:
            self._reject_invalid(connection, request_id_of(line), str(exc))
            return
        op = payload.pop("op", OP_QUERY)
        if op not in WIRE_OPS:
            self._reject_invalid(connection, payload.get("id"), f"unknown op {op!r}")
            return
        self._m_requests[op].inc()
        if op == OP_QUERY:
            self._dispatch_query(payload, connection)
        elif op == OP_PING:
            connection.send({"op": "pong", "version": PROTOCOL_VERSION})
        elif op == OP_INFO:
            connection.send(self.info())
        elif op == OP_STATS:
            connection.send({
                "op": OP_STATS,
                "version": PROTOCOL_VERSION,
                "stats": self.stats.as_dict(),
                "store": self._store.stats.as_dict(),
            })
        elif op == OP_METRICS:
            # One scrape covers this daemon's families, the process-wide
            # engine and span families, and the store's counters.
            connection.send({
                "op": OP_METRICS,
                "version": PROTOCOL_VERSION,
                "content_type": telemetry.CONTENT_TYPE,
                "body": render_prometheus(
                    [self.metrics, telemetry.registry(), self._store.metrics]
                ),
            })
        elif op == OP_SHUTDOWN:
            if not self._config.allow_remote_shutdown:
                self._m_errors["protocol"].inc()
                connection.reject(
                    payload.get("id"), "remote shutdown is disabled on this daemon"
                )
                return
            connection.send({"op": OP_SHUTDOWN, "version": PROTOCOL_VERSION,
                             "status": "draining"})
            if self._stop_task is None:
                self._stop_task = asyncio.ensure_future(self.stop())

    def _reject_invalid(self, connection: _Connection, request_id: Any, detail: str) -> None:
        """Answer and count one line that names no known op."""
        self._m_requests[_INVALID_OP].inc()
        self._m_errors["protocol"].inc()
        connection.reject(request_id, detail)

    def _dispatch_query(self, payload: Dict[str, Any], connection: _Connection) -> None:
        try:
            request = QueryRequest.from_dict(payload)
        except ProtocolError as exc:
            cause = "version" if isinstance(exc, VersionMismatchError) else "protocol"
            self._m_errors[cause].inc()
            connection.reject(payload.get("id"), str(exc))
            return
        self._admit(connection, request.id, _KIND_CODES[request.kind], request.start,
                    request.end, request.target, payload)

    def _admit(self, connection: _Connection, request_id: RequestId, kind: int, start: int,
               end: int, target: Optional[str], payload: Dict[str, Any]) -> None:
        """Check one valid query's target, range and admission; enqueue or reject it."""
        target = target or self._default_target
        if target not in self._targets:
            self._m_errors["invalid_query"].inc()
            connection.reject(request_id, f"unknown target {target!r}")
            return
        domain_size = self._domain_sizes.get(target)
        if domain_size is not None and end >= domain_size:
            # Validated per query at admission so one bad range can never
            # poison the coalesced batch it would have joined.
            self._m_errors["invalid_query"].inc()
            connection.reject(
                request_id,
                f"query touches item {end} but target {target!r} covers [0, {domain_size})",
            )
            return

        # Admission control: explicit overloaded responses, never unbounded
        # queues.  Checked before enqueueing so rejections are immediate.
        if self._draining:
            self._reject_overloaded(connection, request_id, "draining",
                                    "daemon is draining for shutdown")
        elif connection.inflight >= self._config.max_inflight_per_client:
            self._reject_overloaded(
                connection, request_id, "inflight",
                f"client in-flight cap reached ({self._config.max_inflight_per_client})",
            )
        elif self._pending_total >= self._config.max_pending:
            self._reject_overloaded(
                connection, request_id, "pending",
                f"server pending queue is full ({self._config.max_pending})",
            )
        else:
            connection.inflight += 1
            self._enqueue(target, request_id, kind, start, end, connection, payload)

    def _reject_overloaded(self, connection: _Connection, request_id: Any, reason: str,
                           detail: str) -> None:
        """Answer and account one admission-control rejection.

        The overload log is rate-limited per reason — an overloaded daemon
        must not amplify its own overload with log volume; the suppressed
        count rides on the next allowed record.
        """
        self._m_rejections[reason].inc()
        if self._overload_limiter.allow(reason):
            log_event(
                self._log, logging.WARNING, "daemon.overload",
                reason=reason, request_id=request_id,
                pending=self._pending_total,
                suppressed=self._overload_limiter.drain_suppressed(reason),
            )
        connection.reject(request_id, detail, status=STATUS_OVERLOADED)

    # ------------------------------------------------------------------
    # The coalescer
    # ------------------------------------------------------------------
    def _enqueue(self, target: str, request_id: RequestId, kind: int, start: int, end: int,
                 connection: _Connection, payload: Dict[str, Any]) -> None:
        pending = self._pending.get(target)
        if pending is None:
            pending = self._pending[target] = _PendingQueries()
        pending.ids.append(request_id)
        pending.kinds.append(kind)
        pending.starts.append(start)
        pending.ends.append(end)
        pending.connections.append(connection)
        pending.payloads.append(payload)
        self._pending_total += 1
        if len(pending.ids) >= self._config.max_batch:
            self._flush_now(target)
        elif target not in self._flush_handles:
            # The first query of a batch schedules its flush; every query
            # admitted before it runs rides the same engine call.  With a
            # zero window that is every line read in this loop turn.
            loop = asyncio.get_running_loop()
            self._flush_handles[target] = loop.call_later(
                self._config.window_ms / 1000.0, self._flush_now, target
            )

    def _flush_now(self, target: str) -> None:
        """Flush ``target``, cancelling its scheduled flush (a no-op from the timer itself)."""
        handle = self._flush_handles.pop(target, None)
        if handle is not None:
            handle.cancel()
        self._flush(target)

    def _flush(self, target: str) -> None:
        """Answer everything pending for ``target`` with one engine call.

        Synchronous by design: the engine call is one dense vectorised
        evaluation, the replies are encoded in one pass, and each connection
        gets its replies of this batch in one write.  Any failure is
        converted into per-query error responses — the daemon never crashes
        a connection over one bad batch.
        """
        pending = self._pending.pop(target, None)
        if pending is None:
            return
        size = len(pending.ids)
        self._pending_total -= size
        self._m_pending.set(self._pending_total)
        trace_flush = self._config.slow_query_ms is not None
        started = time.perf_counter()
        if trace_flush:
            # Capture the span tree locally (independently of the global
            # telemetry flag) so a slow flush can be logged with full
            # per-stage forensics; detach so the tree roots at this flush.
            with capture_spans(detach=True) as flush_spans:
                lines, rung = self._answer_pending(target, pending)
        else:
            flush_spans = []
            lines, rung = self._answer_pending(target, pending)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self._m_flush_ms.observe(elapsed_ms)
        if trace_flush and elapsed_ms >= float(self._config.slow_query_ms or 0.0):
            self._m_slow.inc()
            log_event(
                self._slow_log, logging.WARNING, "daemon.slow_query",
                target=target, batch=size, rung=rung,
                wall_ms=round(elapsed_ms, 4),
                threshold_ms=self._config.slow_query_ms,
                window_ms=self._config.window_ms,
                queries=[QueryRequest.from_dict(payload).to_dict()
                         for payload in pending.payloads[:8]],
                spans=[record.to_dict() for record in flush_spans],
            )
        replies: Dict[_Connection, List[bytes]] = {}
        for connection, line in zip(pending.connections, lines):
            connection.inflight -= 1
            replies.setdefault(connection, []).append(line)
        for connection, chunks in replies.items():
            connection.write(b"".join(chunks))

    def _answer_pending(self, target: str, pending: _PendingQueries) -> Tuple[List[bytes], str]:
        """Resolve and answer one coalesced batch; never raises.

        Returns the per-query wire lines plus the degradation-ladder rung the
        engine came from (``"error"`` when the batch failed internally).
        """
        ids = pending.ids
        size = len(ids)
        rung = "error"
        with span("daemon.flush", target=target, batch=size) as trace:
            try:
                with span("daemon.resolve_engine", target=target):
                    engine, rung = self._resolve_engine(target)
                if engine is None:
                    self._m_errors["unavailable"].inc(size)
                    lines = _error_lines(
                        ids,
                        f"target {target!r} is not materialised and build_on_miss "
                        "is disabled",
                        STATUS_UNAVAILABLE,
                    )
                else:
                    with span("daemon.answer", batch=size):
                        batch = QueryBatch(pending.kinds, pending.starts, pending.ends)
                        answers = engine.answer(batch)
                        errors = (
                            engine.attribute_errors(batch)
                            if engine.has_error_attribution
                            else None
                        )
                        lines = encode_responses(ids, answers, errors)
                    self._m_batches.inc()
                    self._m_queries.inc(size)
                    self._m_batch_size.observe(size)
                    if size > self._m_largest_batch.value:
                        self._m_largest_batch.set(size)
                    if size > 1:
                        self._m_coalesced.inc(size)
            except Exception as exc:  # noqa: BLE001 - the daemon must not die
                self._m_errors["internal"].inc(size)
                lines = _error_lines(
                    ids, f"internal error answering batch: {exc}", STATUS_ERROR
                )
            trace.set(rung=rung)
        return lines, rung


def _error_lines(ids: List[RequestId], detail: str, status: str) -> List[bytes]:
    """The same rejection as one wire line per query id."""
    return [
        (error_response(request_id, detail, status=status).to_json() + "\n").encode("utf-8")
        for request_id in ids
    ]
