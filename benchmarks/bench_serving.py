#!/usr/bin/env python
"""Serving-layer benchmark: store cache hits and batch-vs-serial throughput.

Standalone (like ``bench_kernels.py`` / ``bench_wavelet_dp.py``) so CI and
later PRs can track the serving trajectory from one machine-readable
artefact:

    PYTHONPATH=src python benchmarks/bench_serving.py [--smoke] [--output BENCH_serving.json]

Measured on a Zipf value-pdf model (n=2048 by default; ``--smoke`` shrinks
the instance for CI):

* **store** — wall-clock of a cold ``SynopsisStore.get_or_build`` (runs the
  histogram DP), of a disk hit (a columnar pack load) from a fresh store over
  the same directory, and of an in-memory hit.  The hits must actually skip
  the build.  These figures are single-shot: the disk hit is the first pack
  load of the process, which a repeat would no longer measure.
* **histogram / wavelet serving** — a 10k-query mixed point/range workload
  answered by the per-query Python loop (the deployment baseline a naive
  integration would ship) and by the vectorised ``BatchQueryEngine.answer``
  path.  The batch answers are checked to match the loop before any time is
  recorded.  Each serial and batch figure is timed :data:`REPEATS` times and
  reported as its median with the min and max.

The headline target this benchmark tracks: batch answering must beat the
per-query loop by at least 10x on the histogram config, median against
median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from _env import environment, host_line
from repro._version import __version__
from repro.core.spec import SynopsisSpec
from repro.core.workload import QueryWorkload
from repro.datasets import zipf_value_pdf
from repro.service import BatchQueryEngine, SynopsisStore, generate_query_mix, replay

#: The acceptance target: vectorised batch answering must beat the per-query
#: Python loop by at least this factor on the histogram configuration.
TARGET_SPEEDUP = 10.0
SMOKE_TARGET_SPEEDUP = 3.0

#: Timed runs behind each serial and batch figure.
REPEATS = 5


def bench_store(model, buckets, metric):
    """Cold build vs disk hit vs memory hit through the synopsis store."""
    spec = SynopsisSpec(budget=buckets, metric=metric)
    with tempfile.TemporaryDirectory() as directory:
        cold_store = SynopsisStore(directory)
        start = time.perf_counter()
        built = cold_store.get_or_build(model, spec)
        build_seconds = time.perf_counter() - start

        warm_store = SynopsisStore(directory)
        start = time.perf_counter()
        from_disk = warm_store.get_or_build(model, spec)
        disk_seconds = time.perf_counter() - start

        start = time.perf_counter()
        from_memory = warm_store.get_or_build(model, spec)
        memory_seconds = time.perf_counter() - start
        assert from_memory is from_disk

        # Recorded in the artifact, so derived from the observed counters
        # rather than asserted: both warm lookups must have bypassed the
        # builder entirely and returned the cold build's synopsis.
        hits_skip_build = (
            cold_store.stats.builds == 1
            and warm_store.stats.builds == 0
            and warm_store.stats.disk_hits == 1
            and warm_store.stats.memory_hits == 1
            and from_disk == built
        )

    print(
        f"[store] build {build_seconds:.4f}s | disk hit {disk_seconds:.4f}s "
        f"({build_seconds / disk_seconds:.0f}x) | memory hit {memory_seconds:.2e}s"
    )
    return built, {
        "build_seconds": round(build_seconds, 6),
        "disk_hit_seconds": round(disk_seconds, 6),
        "memory_hit_seconds": round(memory_seconds, 9),
        "disk_hit_speedup_vs_build": round(build_seconds / disk_seconds, 2),
        "hits_skip_build": hits_skip_build,
    }


def timed(run):
    """Wall seconds of each of ``REPEATS`` calls of ``run``."""
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        seconds.append(time.perf_counter() - start)
    return seconds


def spread(values, digits):
    """The median of ``values`` with its min and max, rounded."""
    return {
        "median": round(statistics.median(values), digits),
        "min": round(min(values), digits),
        "max": round(max(values), digits),
    }


def bench_serving(name, synopsis, model, metric, batch):
    """Serial loop vs vectorised batch on one synopsis; answers must match."""
    engine = BatchQueryEngine.from_model(synopsis, model, metric)

    # The check's batch call also warms the coefficient geometry cache.
    if not np.allclose(engine.answer_serial(batch), engine.answer(batch)):
        raise AssertionError(f"{name}: batch answers diverge from the per-query loop")
    serial = timed(lambda: engine.answer_serial(batch))
    batched = timed(lambda: engine.answer(batch))
    serial_seconds = statistics.median(serial)
    batch_seconds = statistics.median(batched)
    speedup = serial_seconds / batch_seconds
    print(
        f"[{name}] median of {REPEATS}: serial {serial_seconds:.4f}s "
        f"({len(batch) / serial_seconds:,.0f} q/s) | batch {batch_seconds:.4f}s "
        f"({len(batch) / batch_seconds:,.0f} q/s) | {speedup:.1f}x"
    )
    report = replay(engine, batch, chunk_size=1024)
    return {
        "name": name,
        "queries": len(batch),
        "kind_counts": batch.kind_counts(),
        "repeats": REPEATS,
        "serial_seconds": spread(serial, 6),
        "serial_throughput_qps": spread([len(batch) / value for value in serial], 1),
        "batch_seconds": spread(batched, 6),
        "batch_throughput_qps": spread([len(batch) / value for value in batched], 1),
        "batch_speedup_vs_serial": round(speedup, 2),
        "answers_match_serial": True,
        "chunked_replay": {
            "chunk_size": report["chunk_size"],
            "throughput_qps": round(report["qps"], 1),
            "chunk_latency_ms": {
                k: round(report["latency_ms"][k], 4) for k in ("p50", "p95", "max")
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_serving.json"),
        help="where to write the JSON artefact (default: repo root)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small CI instance (n=256, 2k queries, relaxed speedup target)",
    )
    args = parser.parse_args(argv)

    domain_size = 256 if args.smoke else 2048
    query_count = 2_000 if args.smoke else 10_000
    buckets = 16 if args.smoke else 32
    coefficients = 16 if args.smoke else 32
    # SSE keeps the cold build affordable at n=2048 (see BENCH_kernels.json);
    # the serving-path timings this benchmark tracks are metric-independent.
    metric = "sse"
    target = SMOKE_TARGET_SPEEDUP if args.smoke else TARGET_SPEEDUP
    env = environment()
    print(host_line(env))

    model = zipf_value_pdf(domain_size, skew=1.1, uncertainty=0.4, seed=42)
    workload = QueryWorkload.zipf_hotspot(domain_size, skew=1.2, hotspot=0, seed=7)
    batch = generate_query_mix(
        domain_size, query_count, workload=workload, mix=(0.5, 0.3, 0.2),
        mean_range_length=32, seed=11,
    )

    histogram, store_section = bench_store(model, buckets, metric)
    histogram_section = bench_serving("histogram", histogram, model, metric, batch)

    wavelet_store = SynopsisStore()
    wavelet = wavelet_store.get_or_build(
        model, SynopsisSpec(kind="wavelet", budget=coefficients, metric=metric)
    )
    wavelet_section = bench_serving("wavelet", wavelet, model, metric, batch)

    speedup = histogram_section["batch_speedup_vs_serial"]
    meets_target = speedup >= target and store_section["hits_skip_build"]
    payload = {
        "benchmark": "serving",
        "generated_by": "benchmarks/bench_serving.py",
        "version": __version__,
        "smoke": args.smoke,
        "environment": env,
        "config": {
            "domain_size": domain_size,
            "queries": query_count,
            "buckets": buckets,
            "coefficients": coefficients,
            "metric": metric,
            "query_mix": "50% point / 30% range_sum / 20% range_avg, zipf-hotspot workload",
        },
        "target_batch_speedup_vs_serial": target,
        "meets_target": meets_target,
        "store": store_section,
        "histogram_serving": histogram_section,
        "wavelet_serving": wavelet_section,
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nhistogram batch speedup {speedup}x (target {target}x, "
        f"{'met' if meets_target else 'MISSED'}); wrote {output}"
    )
    return 0 if meets_target else 1


if __name__ == "__main__":
    sys.exit(main())
