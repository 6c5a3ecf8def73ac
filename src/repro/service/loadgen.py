"""Seeded multi-worker load generator for the serving daemon.

Grown from :mod:`repro.service.replay`: where ``replay`` measures the engine
library in-process, this module attacks a running
:class:`~repro.service.server.ServingDaemon` over its wire protocol and
measures the *service* — coalescing, admission control and all.  It is the
harness behind ``repro-synopses loadgen`` and ``BENCH_service.json``.

Three measurement phases, each optional:

* **Concurrency sweep** (closed loop): ``concurrency`` workers, each with
  its own connection, send a query and wait for its answer before sending
  the next.  Reported per level: queries/sec, latency percentiles, response
  statuses, and the server-side engine-batch delta — whose ratio to the
  query count is the coalescing factor, the queries one engine call answered.
* **Overload burst** (open loop): workers send at a fixed target rate
  without waiting for responses, intentionally exceeding the daemon's
  admission limits.  The report shows bounded latency plus explicit
  ``overloaded`` responses — the behaviour admission control exists for —
  and verifies the daemon still answers afterwards.
* **Verification**: a seeded query stream is answered over the wire and
  compared bit-for-bit against a local
  :class:`~repro.service.engine.BatchQueryEngine` on the same synopsis
  (JSON's shortest-round-trip float encoding preserves every bit).

Determinism is end-to-end: worker ``w`` of a run seeded ``s`` draws its
queries from :func:`~repro.service.replay.generate_query_mix` with
``(seed=s, stream=w)``, so a seeded run reproduces its entire query stream
bit-identically across processes and machines.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import EvaluationError, ProtocolError
from ..telemetry import LATENCY_BUCKETS_MS, Histogram
from .engine import BatchQueryEngine
from .protocol import (
    OP_INFO,
    OP_PING,
    OP_SHUTDOWN,
    OP_STATS,
    PROTOCOL_VERSION,
    QueryRequest,
    QueryResponse,
    latency_summary,
    parse_request_line,
)
from .queries import QUERY_KINDS, QueryBatch
from .replay import generate_query_mix

__all__ = ["LoadgenClient", "run_loadgen", "run_loadgen_sync", "requests_from_batch"]

#: Stream index reserved for the verification phase so it can never collide
#: with a sweep/burst worker's stream.
VERIFY_STREAM = 1_000_000


def requests_from_batch(
    batch: QueryBatch, *, prefix: str, target: Optional[str] = None
) -> List[QueryRequest]:
    """Wrap a generated :class:`QueryBatch` into wire requests, in order.

    Ids are ``"{prefix}-{position}"`` — unique per worker stream, stable
    across runs, and exactly reproducible by the verification pass.
    """
    return [
        QueryRequest(
            id=f"{prefix}-{position}",
            kind=kind,
            start=start,
            end=end,
            target=target,
        )
        for position, (kind, start, end) in enumerate(batch.as_tuples())
    ]


class LoadgenClient:
    """One newline-delimited-JSON connection to the daemon."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "LoadgenClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def send(self, payload: Dict[str, Any]) -> None:
        self._writer.write((json.dumps(payload, separators=(",", ":")) + "\n").encode())
        await self._writer.drain()

    async def recv(self) -> Dict[str, Any]:
        line = await self._reader.readline()
        if not line:
            raise ProtocolError("the daemon closed the connection mid-conversation")
        return parse_request_line(line)

    async def round_trip(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one payload and read one reply (single-outstanding use only)."""
        await self.send(payload)
        return await self.recv()

    async def query(self, request: QueryRequest) -> QueryResponse:
        """Send one query and wait for its (id-matched) response."""
        reply = await self.round_trip(request.to_dict())
        response = QueryResponse.from_dict(reply)
        if response.id != request.id:
            raise ProtocolError(
                f"response id {response.id!r} does not match request id {request.id!r}"
            )
        return response

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def _server_stats(host: str, port: int) -> Dict[str, Any]:
    client = await LoadgenClient.connect(host, port)
    try:
        return await client.round_trip({"op": OP_STATS})
    finally:
        await client.close()


async def _closed_worker(
    host: str,
    port: int,
    requests: Sequence[QueryRequest],
    latencies_ms: List[float],
    statuses: Dict[str, int],
) -> None:
    """Closed loop: one outstanding query per worker, measured per round trip."""
    client = await LoadgenClient.connect(host, port)
    try:
        for request in requests:
            started = time.perf_counter()
            response = await client.query(request)
            latencies_ms.append(1000.0 * (time.perf_counter() - started))
            statuses[response.status] = statuses.get(response.status, 0) + 1
    finally:
        await client.close()


async def _open_worker(
    host: str,
    port: int,
    requests: Sequence[QueryRequest],
    rate_per_worker: float,
    latencies_ms: List[float],
    statuses: Dict[str, int],
) -> None:
    """Open loop: send on a fixed schedule, collect responses as they come.

    The sender never waits for answers, so arrival pressure is controlled by
    ``rate_per_worker`` alone — exactly the shape that drives a bounded
    pending queue into explicit ``overloaded`` rejections.
    """
    client = await LoadgenClient.connect(host, port)
    sent_at: Dict[Any, float] = {}
    outstanding = len(requests)

    async def _collect() -> None:
        nonlocal outstanding
        while outstanding > 0:
            reply = await client.recv()
            response = QueryResponse.from_dict(reply)
            received = time.perf_counter()
            started = sent_at.pop(response.id, None)
            if started is not None:
                latencies_ms.append(1000.0 * (received - started))
            statuses[response.status] = statuses.get(response.status, 0) + 1
            outstanding -= 1

    collector = asyncio.ensure_future(_collect())
    try:
        interval = 1.0 / rate_per_worker if rate_per_worker > 0 else 0.0
        next_send = time.perf_counter()
        for request in requests:
            if interval > 0:
                delay = next_send - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                next_send += interval
            sent_at[request.id] = time.perf_counter()
            await client.send(request.to_dict())
        await asyncio.wait_for(collector, timeout=30.0)
    finally:
        if not collector.done():
            collector.cancel()
        await client.close()


async def _run_level(
    host: str,
    port: int,
    *,
    concurrency: int,
    queries_per_worker: int,
    domain_size: int,
    seed: Optional[int],
    mix: Sequence[float],
    mean_range_length: int,
    target: Optional[str],
    mode: str = "closed",
    rate_per_worker: float = 0.0,
    stream_base: int = 0,
) -> Dict[str, Any]:
    """One concurrency level: spawn workers, aggregate latencies/statuses."""
    if mode not in ("closed", "open"):
        raise EvaluationError(f"unknown load mode {mode!r}; expected 'closed' or 'open'")
    latencies_ms: List[float] = []
    statuses: Dict[str, int] = {}
    workers = []
    for worker in range(concurrency):
        stream = stream_base + worker
        batch = generate_query_mix(
            domain_size,
            queries_per_worker,
            mix=mix,
            mean_range_length=mean_range_length,
            seed=seed,
            stream=stream,
        )
        requests = requests_from_batch(batch, prefix=f"w{stream}", target=target)
        if mode == "closed":
            workers.append(_closed_worker(host, port, requests, latencies_ms, statuses))
        else:
            workers.append(
                _open_worker(host, port, requests, rate_per_worker, latencies_ms, statuses)
            )
    before = await _server_stats(host, port)
    started = time.perf_counter()
    await asyncio.gather(*workers)
    elapsed = time.perf_counter() - started
    after = await _server_stats(host, port)
    queries = concurrency * queries_per_worker
    batches = (
        after["stats"]["engine_batches"] - before["stats"]["engine_batches"]
    )
    answered = (
        after["stats"]["queries_answered"] - before["stats"]["queries_answered"]
    )
    # Client-side per-bucket distribution on the *same* boundaries as the
    # daemon's server-side instruments, so the two histograms line up
    # bucket-for-bucket when a scrape sits next to a loadgen report.
    histogram = Histogram(
        "loadgen_latency_ms",
        "Client-observed round-trip latency",
        buckets=LATENCY_BUCKETS_MS,
    )
    for value in latencies_ms:
        histogram.observe(value)
    return {
        "mode": mode,
        "concurrency": concurrency,
        "queries": queries,
        "queries_per_worker": queries_per_worker,
        "rate_per_worker": rate_per_worker if mode == "open" else None,
        "seconds": elapsed,
        "qps": queries / elapsed if elapsed > 0 else float("inf"),
        "latency_ms": latency_summary(latencies_ms),
        "latency_histogram": histogram.snapshot(),
        "statuses": statuses,
        "engine_batches": batches,
        "queries_answered": answered,
        "coalescing_factor": (answered / batches) if batches else None,
    }


async def _verify_bit_identical(
    host: str,
    port: int,
    engine: BatchQueryEngine,
    *,
    queries: int,
    seed: Optional[int],
    mix: Sequence[float],
    mean_range_length: int,
    target: Optional[str],
) -> Dict[str, Any]:
    """Daemon answers vs. the direct engine, compared bit-for-bit."""
    batch = generate_query_mix(
        engine.synopsis.domain_size,
        queries,
        mix=mix,
        mean_range_length=mean_range_length,
        seed=seed,
        stream=VERIFY_STREAM,
    )
    requests = requests_from_batch(batch, prefix="verify", target=target)
    expected = engine.answer(batch)
    expected_errors = (
        engine.attribute_errors(batch) if engine.has_error_attribution else None
    )
    client = await LoadgenClient.connect(host, port)
    got = np.empty(len(requests), dtype=float)
    got_errors = np.empty(len(requests), dtype=float)
    saw_errors = True
    try:
        for position, request in enumerate(requests):
            response = await client.query(request)
            if not response.ok:
                raise EvaluationError(
                    f"verification query {request.id} was rejected: "
                    f"{response.status}: {response.detail}"
                )
            got[position] = response.answer if response.answer is not None else np.nan
            if response.expected_error is None:
                saw_errors = False
            else:
                got_errors[position] = response.expected_error
    finally:
        await client.close()
    identical = bool(np.array_equal(got, expected))
    errors_identical: Optional[bool] = None
    if expected_errors is not None and saw_errors:
        errors_identical = bool(np.array_equal(got_errors, expected_errors))
    return {
        "queries": len(requests),
        "seed": seed,
        "stream": VERIFY_STREAM,
        "bit_identical": identical,
        "expected_errors_bit_identical": errors_identical,
        "max_abs_diff": float(np.max(np.abs(got - expected))) if len(requests) else 0.0,
    }


async def run_loadgen(
    host: str,
    port: int,
    *,
    levels: Sequence[int] = (1, 8, 32),
    queries_per_level: int = 2000,
    seed: Optional[int] = 7,
    mix: Sequence[float] = (0.5, 0.3, 0.2),
    mean_range_length: int = 16,
    target: Optional[str] = None,
    burst: int = 0,
    burst_concurrency: int = 8,
    burst_rate: float = 5000.0,
    verify_engine: Optional[BatchQueryEngine] = None,
    verify_queries: int = 500,
    shutdown: bool = False,
) -> Dict[str, Any]:
    """Attack the daemon at ``host:port`` and return the full report.

    The report is the ``BENCH_service.json`` payload: a closed-loop
    concurrency sweep (``levels``, each answering ``queries_per_level``
    split across the workers), an optional open-loop overload ``burst``, an
    optional bit-identity ``verification`` against a local engine, and the
    daemon's own stats before/after.  ``shutdown=True`` asks the daemon to
    drain and exit afterwards (requires ``allow_remote_shutdown``).
    """
    if any(int(level) <= 0 for level in levels):
        raise EvaluationError("every concurrency level must be positive")
    if queries_per_level <= 0:
        raise EvaluationError("queries_per_level must be positive")
    info_client = await LoadgenClient.connect(host, port)
    try:
        info = await info_client.round_trip({"op": OP_INFO})
    finally:
        await info_client.close()
    if info.get("op") != OP_INFO:
        raise ProtocolError(f"expected an info payload, got {info!r}")
    resolved_target = target or info["default_target"]
    target_info = info["targets"].get(resolved_target)
    if target_info is None:
        raise EvaluationError(
            f"the daemon does not serve target {resolved_target!r} "
            f"(targets: {sorted(info['targets'])})"
        )
    domain_size = int(target_info["domain_size"])

    report: Dict[str, Any] = {
        "protocol_version": PROTOCOL_VERSION,
        "seed": seed,
        "mix": {name: float(fraction) for name, fraction in zip(QUERY_KINDS, mix)},
        "mean_range_length": mean_range_length,
        "target": resolved_target,
        "server": info,
        "levels": [],
    }
    stream_base = 0
    for level in levels:
        concurrency = int(level)
        queries_per_worker = max(1, queries_per_level // concurrency)
        report["levels"].append(
            await _run_level(
                host,
                port,
                concurrency=concurrency,
                queries_per_worker=queries_per_worker,
                domain_size=domain_size,
                seed=seed,
                mix=mix,
                mean_range_length=mean_range_length,
                target=target,
                mode="closed",
                stream_base=stream_base,
            )
        )
        stream_base += concurrency

    if burst > 0:
        burst_workers = max(1, int(burst_concurrency))
        report["overload"] = await _run_level(
            host,
            port,
            concurrency=burst_workers,
            queries_per_worker=max(1, burst // burst_workers),
            domain_size=domain_size,
            seed=seed,
            mix=mix,
            mean_range_length=mean_range_length,
            target=target,
            mode="open",
            rate_per_worker=float(burst_rate),
            stream_base=stream_base,
        )
        stream_base += burst_workers
        # The point of admission control: the daemon survives the burst and
        # keeps answering.  A ping after the storm proves it.
        ping_client = await LoadgenClient.connect(host, port)
        try:
            pong = await ping_client.round_trip({"op": OP_PING})
        finally:
            await ping_client.close()
        report["overload"]["responsive_after"] = pong.get("op") == "pong"

    if verify_engine is not None and verify_queries > 0:
        report["verification"] = await _verify_bit_identical(
            host,
            port,
            verify_engine,
            queries=verify_queries,
            seed=seed,
            mix=mix,
            mean_range_length=mean_range_length,
            target=target,
        )

    final = await _server_stats(host, port)
    report["server_stats"] = final["stats"]
    report["store_stats"] = final["store"]

    if shutdown:
        client = await LoadgenClient.connect(host, port)
        try:
            ack = await client.round_trip({"op": OP_SHUTDOWN})
            report["shutdown"] = ack.get("status", ack.get("detail"))
        finally:
            await client.close()
    return report


def run_loadgen_sync(host: str, port: int, **kwargs: Any) -> Dict[str, Any]:
    """Synchronous wrapper over :func:`run_loadgen` (own event loop)."""
    return asyncio.run(run_loadgen(host, port, **kwargs))
