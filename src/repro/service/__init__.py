"""Synopsis serving layer: cached store, batch engine, wire protocol, daemon.

The construction side of this package (``repro.histograms``,
``repro.wavelets``, the :func:`~repro.core.builders.build` front door with
its declarative :class:`~repro.core.spec.SynopsisSpec`) turns probabilistic
data into small synopses; this subpackage is the deployment side that stands
those synopses up against query traffic:

* :class:`SynopsisStore` — content-addressed build cache (in memory, and on
  disk as one columnar pack with mmap loads, keyed by
  ``SynopsisSpec.canonical()``) so every (dataset, spec) pair pays its
  dynamic program exactly once;
* :class:`BatchQueryEngine` — vectorised evaluation of mixed point /
  range-sum / range-avg :class:`QueryBatch` es, with per-query
  expected-error attribution from the per-item expected errors;
* :class:`QueryRequest` / :class:`QueryResponse` — the versioned wire
  schema (:mod:`repro.service.protocol`), whose :func:`encode_responses`
  is the one place the CLI and the daemon turn answers into bytes;
* :class:`ServingDaemon` — the asyncio TCP daemon
  (:mod:`repro.service.server`): micro-batching request coalescer,
  admission control, one resident engine per target, draining shutdown;
* :class:`DaemonClient` — one wire connection to a running daemon
  (:mod:`repro.service.client`), used by ``repro-synopses telemetry``;
* :func:`generate_query_mix` / :func:`replay` — seeded workload generation
  (per-stream, so concurrent clients draw independent reproducible queries)
  and the in-process batch replay behind ``query --replay``.

See the "serving layer" and "serving daemon" sections of DESIGN.md for
keying, coalescing, admission-control and complexity notes.
"""

from .client import DaemonClient
from .engine import BatchQueryEngine
from .protocol import (
    MIN_PROTOCOL_VERSION,
    OP_METRICS,
    PROTOCOL_VERSION,
    RESPONSE_STATUSES,
    QueryRequest,
    QueryResponse,
    encode_responses,
    error_response,
    latency_summary,
    responses_for,
)
from .queries import POINT, QUERY_KINDS, RANGE_AVG, RANGE_SUM, QueryBatch
from .replay import generate_query_mix, replay, stream_rng
from .server import DEFAULT_PORT, DaemonConfig, ServingDaemon, ServingStats
from .store import StoreStats, SynopsisStore, fingerprint_data

__all__ = [
    "SynopsisStore",
    "StoreStats",
    "fingerprint_data",
    "QueryBatch",
    "QUERY_KINDS",
    "POINT",
    "RANGE_SUM",
    "RANGE_AVG",
    "BatchQueryEngine",
    "generate_query_mix",
    "replay",
    "stream_rng",
    "PROTOCOL_VERSION",
    "MIN_PROTOCOL_VERSION",
    "OP_METRICS",
    "RESPONSE_STATUSES",
    "QueryRequest",
    "QueryResponse",
    "responses_for",
    "encode_responses",
    "error_response",
    "latency_summary",
    "DaemonConfig",
    "ServingDaemon",
    "ServingStats",
    "DEFAULT_PORT",
    "DaemonClient",
]
