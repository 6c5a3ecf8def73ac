"""Workload replay: generate query mixes and measure serving throughput.

The serving layer's end-to-end story: draw a mix of point / range-sum /
range-avg queries from a :class:`~repro.core.workload.QueryWorkload`
distribution (items and range anchors are sampled proportionally to the
per-item query weights, so a skewed workload produces skewed traffic), then
replay the mix against a :class:`~repro.service.engine.BatchQueryEngine` in
batches and report throughput and per-batch latency percentiles.

This is the measurement harness behind ``repro-synopses query --replay`` and
``benchmarks/bench_serving.py``.

Determinism is end-to-end: a ``(seed, stream)`` pair names one query stream
bit-identically across processes and machines (numpy's ``SeedSequence``
spawn-key mechanism), which is what lets a multi-connection load generator
give every connection its own reproducible traffic and lets a checker
regenerate exactly the stream a connection sent.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence, Union

import numpy as np

from ..core.workload import QueryWorkload
from ..exceptions import EvaluationError
from .engine import BatchQueryEngine
from .protocol import latency_summary
from .queries import QUERY_KINDS, QueryBatch

__all__ = ["generate_query_mix", "replay", "stream_rng"]


def stream_rng(seed: Optional[int], stream: Optional[int] = None) -> np.random.Generator:
    """A generator for (worker) ``stream`` of the run seeded by ``seed``.

    ``stream=None`` is the plain single-stream case (``default_rng(seed)``,
    byte-compatible with every pre-existing caller).  A non-negative stream
    index derives an independent child stream via the seed's spawn key, so
    concurrent workers draw non-overlapping, individually reproducible query
    streams from one run seed — across processes, not just threads.
    """
    if stream is None:
        return np.random.default_rng(seed)
    if stream < 0:
        raise EvaluationError("the stream index must be non-negative")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def generate_query_mix(
    domain_size: int,
    count: int,
    *,
    workload: Optional[QueryWorkload] = None,
    mix: Sequence[float] = (0.5, 0.3, 0.2),
    mean_range_length: int = 16,
    seed: Optional[int] = None,
    stream: Optional[int] = None,
) -> QueryBatch:
    """A random batch of ``count`` queries over ``[0, domain_size)``.

    Parameters
    ----------
    workload:
        Optional per-item query weights; items (for point queries) and range
        anchors are drawn proportionally to them.  ``None`` samples uniformly.
    mix:
        Fractions of point / range-sum / range-avg queries (normalised).
    mean_range_length:
        Mean of the geometric range-length distribution; ranges are clipped
        to the domain.
    seed:
        Seed for reproducible mixes.
    stream:
        Optional worker-stream index: ``(seed, stream)`` names one query
        stream bit-identically across processes (see :func:`stream_rng`).
    """
    if domain_size <= 0:
        raise EvaluationError("domain_size must be positive")
    if count < 0:
        raise EvaluationError("the query count must be non-negative")
    mix_arr = np.asarray(mix, dtype=float)
    if mix_arr.shape != (len(QUERY_KINDS),) or np.any(mix_arr < 0) or mix_arr.sum() <= 0:
        raise EvaluationError(
            f"mix must be {len(QUERY_KINDS)} non-negative fractions (point, range_sum, range_avg)"
        )
    probabilities = None
    if workload is not None:
        weights = workload.for_domain(domain_size)
        probabilities = weights / weights.sum()
    rng = stream_rng(seed, stream)
    kinds = rng.choice(len(QUERY_KINDS), size=count, p=mix_arr / mix_arr.sum()).astype(np.int8)
    anchors = rng.choice(domain_size, size=count, p=probabilities)
    lengths = rng.geometric(1.0 / max(1, mean_range_length), size=count) - 1
    starts = anchors.astype(np.int64)
    ends = np.minimum(domain_size - 1, starts + lengths)
    point_code = QUERY_KINDS.index("point")
    ends[kinds == point_code] = starts[kinds == point_code]
    return QueryBatch(kinds, starts, ends)


def replay(
    engine: BatchQueryEngine,
    batch: Optional[QueryBatch] = None,
    *,
    count: Optional[int] = None,
    seed: Optional[int] = None,
    stream: Optional[int] = None,
    workload: Optional[QueryWorkload] = None,
    mix: Sequence[float] = (0.5, 0.3, 0.2),
    mean_range_length: int = 16,
    chunk_size: int = 1024,
    compare_serial: bool = False,
) -> Dict:
    """Replay a query batch through the engine and measure serving speed.

    The batch is either passed in directly or generated here from
    ``count``/``seed``/``stream`` (threading the run seed straight through
    :func:`generate_query_mix`, so the report records exactly how to
    reproduce its traffic).  It is answered in chunks of ``chunk_size`` (the
    shape a serving tier would use for request batching); the report carries
    the total wall time, throughput in queries/second and per-chunk latency
    percentiles.  With ``compare_serial=True`` the per-query reference loop
    is timed on the same batch and its answers are checked to match the
    vectorised ones.
    """
    if chunk_size <= 0:
        raise EvaluationError("chunk_size must be positive")
    generated = batch is None
    if generated:
        if count is None:
            raise EvaluationError("replay needs a query batch or a count to generate one")
        batch = generate_query_mix(
            engine.synopsis.domain_size,
            count,
            workload=workload,
            mix=mix,
            mean_range_length=mean_range_length,
            seed=seed,
            stream=stream,
        )
    elif count is not None:
        raise EvaluationError("pass a query batch or a count to generate one, not both")
    chunk_latencies = []
    answers = np.empty(len(batch), dtype=float)
    total_start = time.perf_counter()
    for offset in range(0, len(batch), chunk_size):
        chunk = QueryBatch(
            batch.kinds[offset : offset + chunk_size],
            batch.starts[offset : offset + chunk_size],
            batch.ends[offset : offset + chunk_size],
        )
        chunk_start = time.perf_counter()
        answers[offset : offset + len(chunk)] = engine.answer(chunk)
        chunk_latencies.append(time.perf_counter() - chunk_start)
    batch_seconds = time.perf_counter() - total_start
    latencies_ms = 1000.0 * np.asarray(chunk_latencies if chunk_latencies else [0.0])
    qps = len(batch) / batch_seconds if batch_seconds > 0 else float("inf")
    report: Dict[str, Union[int, float, Dict, None]] = {
        "queries": len(batch),
        "kind_counts": batch.kind_counts(),
        "chunk_size": int(chunk_size),
        "batch_seconds": batch_seconds,
        # The structured serving-report shape shared with the load generator
        # and the wire layer (protocol.latency_summary): qps + latency_ms.
        "qps": qps,
        "latency_ms": latency_summary(latencies_ms.tolist()),
    }
    if generated:
        report["seed"] = seed
        report["stream"] = stream
    if compare_serial:
        serial_start = time.perf_counter()
        serial_answers = engine.answer_serial(batch)
        serial_seconds = time.perf_counter() - serial_start
        if not np.allclose(serial_answers, answers):
            raise EvaluationError(
                "vectorised batch answers diverge from the per-query reference loop"
            )
        report["serial_seconds"] = serial_seconds
        report["serial_throughput_qps"] = (
            len(batch) / serial_seconds if serial_seconds > 0 else float("inf")
        )
        report["batch_speedup_vs_serial"] = (
            serial_seconds / batch_seconds if batch_seconds > 0 else float("inf")
        )
        report["answers_match_serial"] = True
    return report
