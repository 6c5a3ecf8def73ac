#!/usr/bin/env python
"""Store benchmark: columnar mmap cold starts vs the JSON interchange read.

Standalone (like ``bench_serving.py``), producing one machine-readable
artefact CI can track:

    PYTHONPATH=src python benchmarks/bench_store.py [--smoke] [--output BENCH_store.json]

Two measurements, mirroring the two costs the columnar pack exists to kill:

* **cold start** — one large synopsis (n=65536, B=8192 by default) written
  once into a store's pack and once as a JSON interchange document
  (:func:`repro.io.write_synopsis`).  A fresh ``SynopsisStore`` then loads it
  from the pack, and :func:`repro.io.read_synopsis` reads the document.  The
  JSON read pays a full text parse and array re-materialisation (what the
  store's retired JSON format paid on every disk hit); the pack pays an index
  lookup, a CRC pass and an mmap view.  Both loaded synopses must answer a
  mixed query batch **bit-identically** before any number is recorded.
* **large store** — a pack holding 100k entries (2k under ``--smoke``); the
  cost tracked is *store open + first query* on a fresh process, which the
  fixed-record index keeps in the milliseconds, and the resident-set growth
  of reading through entries, which mmap keeps far below the pack size.

Headline targets: columnar cold start at least 30x faster than the JSON
interchange read (5x under ``--smoke``, where the synopsis is small enough
that constant costs dominate), and open + first query under 150ms at 100k
entries.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from _env import environment
from repro._version import __version__
from repro.core.histogram import Histogram
from repro.core.wavelet import WaveletSynopsis
from repro.io import read_synopsis, write_synopsis
from repro.service import SynopsisStore

TARGET_COLD_START_SPEEDUP = 30.0
SMOKE_COLD_START_SPEEDUP = 5.0
TARGET_OPEN_FIRST_QUERY_MS = 150.0


def synthetic_histogram(domain_size: int, buckets: int, seed: int) -> Histogram:
    """A dense random histogram, built directly (no DP) so scale is free."""
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, domain_size), buckets - 1, replace=False))
    starts = np.concatenate([[0], cuts]).astype(np.int64)
    ends = np.concatenate([cuts - 1, [domain_size - 1]]).astype(np.int64)
    representatives = rng.uniform(0.0, 100.0, size=buckets)
    return Histogram.from_arrays(starts, ends, representatives, domain_size)


def synthetic_wavelet(domain_size: int, terms: int, seed: int) -> WaveletSynopsis:
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(domain_size, size=terms, replace=False)).astype(np.int64)
    values = rng.normal(0.0, 10.0, size=terms)
    return WaveletSynopsis.from_arrays(indices, values, domain_size)


def query_answers(synopsis, seed: int = 3, queries: int = 512):
    rng = np.random.default_rng(seed)
    n = synopsis.domain_size
    items = rng.integers(0, n, size=queries)
    lo = rng.integers(0, n, size=queries)
    width = rng.integers(1, max(2, n // 8), size=queries)
    hi = np.minimum(lo + width, n - 1)
    return synopsis.estimate_batch(items), synopsis.range_sum_estimates(lo, hi)


def resident_bytes() -> int:
    """Current resident set size (Linux); 0 where /proc is unavailable."""
    try:
        with open("/proc/self/statm") as statm:
            import os

            return int(statm.read().split()[1]) * os.sysconf("SC_PAGESIZE")
    except (OSError, IndexError, ValueError):
        return 0


def bench_cold_start(domain_size: int, buckets: int, terms: int):
    """One big synopsis per kind, in a pack and as a JSON document, loaded cold."""
    synopses = {
        "histogram": synthetic_histogram(domain_size, buckets, seed=1),
        "wavelet": synthetic_wavelet(domain_size, terms, seed=2),
    }
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        writer = SynopsisStore(tmp / "pack")
        for kind, synopsis in synopses.items():
            writer.put(f"{kind}-large", synopsis, {"kind": kind})
            write_synopsis(synopsis, tmp / f"{kind}-large.json")
        loaders = {
            "json": lambda kind: read_synopsis(tmp / f"{kind}-large.json"),
            "columnar": lambda kind: SynopsisStore(tmp / "pack").get(f"{kind}-large"),
        }

        for kind, synopsis in synopses.items():
            expected_points, expected_ranges = query_answers(synopsis)
            timings = {}
            for fmt, load in loaders.items():
                # A "cold start" is a fresh process/store instance, not a cold
                # OS page cache (both files were just written); warm the cache
                # once untimed, then take the median of fresh loads so
                # first-touch page faults don't swamp the per-load cost.
                loaded = load(kind)
                samples = []
                for _ in range(7):
                    start = time.perf_counter()
                    loaded = load(kind)
                    samples.append(time.perf_counter() - start)
                timings[fmt] = float(np.median(samples))
                points, ranges = query_answers(loaded)
                if not (
                    np.array_equal(points, expected_points)
                    and np.array_equal(ranges, expected_ranges)
                ):
                    raise AssertionError(
                        f"{fmt} reload of the {kind} answers queries differently"
                    )
            speedup = timings["json"] / timings["columnar"]
            print(
                f"[cold-start:{kind}] json {timings['json'] * 1e3:.2f}ms | "
                f"columnar {timings['columnar'] * 1e3:.2f}ms | {speedup:.0f}x"
            )
            results[kind] = {
                "json_seconds": round(timings["json"], 6),
                "columnar_seconds": round(timings["columnar"], 6),
                "columnar_speedup": round(speedup, 2),
                "answers_bit_identical": True,
            }
    return results


def bench_large_store(entries: int):
    """A pack with many entries: open + first query must stay in milliseconds."""
    import gc

    rng = np.random.default_rng(9)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # Bounded residency during ingest, and the writer is dropped before
        # timing: the metric is open + first query on a *fresh* process,
        # which holds none of the writer's heap.
        writer = SynopsisStore(tmp, max_memory_entries=64)
        start = time.perf_counter()
        template_starts = np.array([0, 8, 16, 32], dtype=np.int64)
        template_ends = np.array([7, 15, 31, 63], dtype=np.int64)
        for i in range(entries):
            synopsis = Histogram.from_arrays(
                template_starts, template_ends, rng.uniform(0, 50, size=4), 64
            )
            writer.put(f"entry-{i:07d}", synopsis, {"i": i})
        put_seconds = time.perf_counter() - start
        writer = None
        gc.collect()

        pack_bytes = (tmp / "synopses.pack").stat().st_size
        index_bytes = (tmp / "synopses.idx").stat().st_size

        probe = f"entry-{entries // 2:07d}"
        before = resident_bytes()
        start = time.perf_counter()
        reader = SynopsisStore(tmp)
        loaded = reader.get(probe)
        answer = float(loaded.range_sum_estimate(0, 63))
        open_first_query_seconds = time.perf_counter() - start

        # Touch a spread of entries; mmap should page in only what is read.
        for i in range(0, entries, max(1, entries // 200)):
            reader.get(f"entry-{i:07d}")
        resident_delta = max(0, resident_bytes() - before)

    print(
        f"[large-store] {entries:,} entries | put {put_seconds:.2f}s | "
        f"open+first query {open_first_query_seconds * 1e3:.2f}ms | "
        f"pack {pack_bytes / 1e6:.1f}MB, index {index_bytes / 1e6:.1f}MB | "
        f"resident delta {resident_delta / 1e6:.1f}MB"
    )
    assert answer > 0.0
    return {
        "entries": entries,
        "put_seconds": round(put_seconds, 3),
        "open_first_query_ms": round(open_first_query_seconds * 1e3, 3),
        "pack_bytes": pack_bytes,
        "index_bytes": index_bytes,
        "resident_delta_bytes": resident_delta,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_store.json"),
        help="where to write the JSON artefact (default: repo root)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small CI instance (n=8192, 2k entries, relaxed speedup target)",
    )
    args = parser.parse_args(argv)

    domain_size = 8192 if args.smoke else 65536
    buckets = 1024 if args.smoke else 8192
    terms = 1024 if args.smoke else 8192
    entries = 2_000 if args.smoke else 100_000
    speedup_target = SMOKE_COLD_START_SPEEDUP if args.smoke else TARGET_COLD_START_SPEEDUP

    cold_start = bench_cold_start(domain_size, buckets, terms)
    large_store = bench_large_store(entries)

    histogram_speedup = cold_start["histogram"]["columnar_speedup"]
    open_ms = large_store["open_first_query_ms"]
    meets_target = (
        histogram_speedup >= speedup_target
        and open_ms < TARGET_OPEN_FIRST_QUERY_MS
        and all(section["answers_bit_identical"] for section in cold_start.values())
    )
    payload = {
        "benchmark": "store",
        "generated_by": "benchmarks/bench_store.py",
        "version": __version__,
        "smoke": args.smoke,
        "environment": environment(),
        "config": {
            "domain_size": domain_size,
            "buckets": buckets,
            "wavelet_terms": terms,
            "large_store_entries": entries,
        },
        "target_cold_start_speedup": speedup_target,
        "target_open_first_query_ms": TARGET_OPEN_FIRST_QUERY_MS,
        "meets_target": meets_target,
        "cold_start": cold_start,
        "large_store": large_store,
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\ncold-start speedup {histogram_speedup}x (target {speedup_target}x), "
        f"open+first query {open_ms}ms (target <{TARGET_OPEN_FIRST_QUERY_MS}ms) "
        f"-> {'met' if meets_target else 'MISSED'}; wrote {output}"
    )
    return 0 if meets_target else 1


if __name__ == "__main__":
    sys.exit(main())
