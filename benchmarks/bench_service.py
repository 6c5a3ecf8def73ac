#!/usr/bin/env python
"""Serving-daemon benchmark: coalescing, admission control, bit-identity.

Standalone (like ``bench_serving.py``) so CI and later PRs can track the
daemon's serving trajectory from one machine-readable artefact:

    PYTHONPATH=src python benchmarks/bench_service.py [--smoke] [--output BENCH_service.json]

The benchmark stands a real :class:`repro.service.ServingDaemon` up on an
ephemeral loopback port and attacks it with the seeded load generator
(:mod:`repro.service.loadgen`), all inside one event loop:

* **Concurrency sweep** (closed loop, three levels) — qps and p50/p99
  latency per level, plus the server-side engine-batch count.  At the high
  concurrency levels the daemon must coalesce: strictly fewer engine calls
  than client queries.
* **Overload burst** (open loop) — workers send far beyond ``max_pending``.
  Admission control must keep admitted-query latency bounded and reject the
  excess with explicit ``overloaded`` responses; the daemon must still
  answer a ping afterwards and its internal-error count must stay zero.
* **Verification** — a seeded query stream answered over the wire is
  compared bit-for-bit against a local ``BatchQueryEngine`` on the same
  synopsis (answers and expected-error attributions both).

``meets_target`` in the artefact is the conjunction of those three checks.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
from pathlib import Path

from _env import environment
from repro._version import __version__
from repro.core.spec import SynopsisSpec
from repro.datasets import zipf_value_pdf
from repro.service import (
    BatchQueryEngine,
    DaemonConfig,
    ServingDaemon,
    SynopsisStore,
    run_loadgen,
)


async def run_benchmark(model, spec, store_dir, *, levels, queries_per_level,
                        burst, max_pending, seed):
    store = SynopsisStore(store_dir)
    daemon = ServingDaemon(
        model,
        store,
        {"default": spec},
        config=DaemonConfig(max_pending=max_pending, allow_remote_shutdown=True),
    )
    host, port = await daemon.start(port=0)
    synopsis = store.get_or_build(model, spec)
    engine = BatchQueryEngine.from_model(synopsis, model, spec.metric)
    try:
        report = await run_loadgen(
            host,
            port,
            levels=levels,
            queries_per_level=queries_per_level,
            seed=seed,
            burst=burst,
            burst_concurrency=8,
            burst_rate=5000.0,
            verify_engine=engine,
            verify_queries=min(500, queries_per_level),
            shutdown=True,
        )
        await asyncio.wait_for(daemon.serve_until_stopped(), timeout=30.0)
    finally:
        await daemon.stop()
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_service.json"),
        help="where to write the JSON artefact (default: repo root)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small CI instance (n=256, 400 queries per level)",
    )
    args = parser.parse_args(argv)

    domain_size = 256 if args.smoke else 1024
    queries_per_level = 400 if args.smoke else 2000
    burst = 400 if args.smoke else 2000
    buckets = 16 if args.smoke else 32
    levels = (1, 8, 32)
    max_pending = 64
    seed = 7

    model = zipf_value_pdf(domain_size, skew=1.1, uncertainty=0.4, seed=42)
    spec = SynopsisSpec(kind="histogram", budget=buckets, metric="sse")

    with tempfile.TemporaryDirectory() as store_dir:
        report = asyncio.run(
            run_benchmark(
                model, spec, store_dir,
                levels=levels, queries_per_level=queries_per_level,
                burst=burst, max_pending=max_pending, seed=seed,
            )
        )

    for level in report["levels"]:
        latency = level["latency_ms"]
        factor = level["coalescing_factor"]
        print(
            f"[c={level['concurrency']:<3}] {level['qps']:>10,.0f} qps | "
            f"p50 {latency['p50']:.3f}ms p99 {latency['p99']:.3f}ms | "
            f"{level['engine_batches']} engine batches for {level['queries']} "
            f"queries ({factor:.2f}x coalescing)"
        )
    overload = report["overload"]
    print(
        f"[overload] statuses {overload['statuses']} | "
        f"p99 {overload['latency_ms']['p99']:.3f}ms | "
        f"responsive after: {overload['responsive_after']}"
    )
    verification = report["verification"]
    print(
        f"[verify] bit_identical={verification['bit_identical']} "
        f"expected_errors={verification['expected_errors_bit_identical']} "
        f"over {verification['queries']} queries"
    )

    # Acceptance checks, recorded in the artefact.
    high = [level for level in report["levels"] if level["concurrency"] >= 8]
    coalesces = all(
        0 < level["engine_batches"] < level["queries"] for level in high
    )
    over_statuses = overload["statuses"]
    admission_holds = (
        over_statuses.get("overloaded", 0) > 0
        and overload["responsive_after"] is True
        and report["server_stats"]["internal_errors"] == 0
    )
    bit_identical = (
        verification["bit_identical"] is True
        and verification["expected_errors_bit_identical"] in (True, None)
    )
    meets_target = coalesces and admission_holds and bit_identical

    payload = {
        "benchmark": "service",
        "generated_by": "benchmarks/bench_service.py",
        "version": __version__,
        "smoke": args.smoke,
        "environment": environment(),
        "config": {
            "domain_size": domain_size,
            "buckets": buckets,
            "queries_per_level": queries_per_level,
            "burst": burst,
            "max_pending": max_pending,
            "window_ms": report["server"]["window_ms"],
            "seed": seed,
        },
        "checks": {
            "coalesces_at_high_concurrency": coalesces,
            "admission_control_holds": admission_holds,
            "bit_identical_to_direct_engine": bit_identical,
        },
        "meets_target": meets_target,
        "report": report,
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(
        f"\ncoalescing {'ok' if coalesces else 'MISSED'}, admission control "
        f"{'ok' if admission_holds else 'MISSED'}, bit-identity "
        f"{'ok' if bit_identical else 'MISSED'}; wrote {output}"
    )
    return 0 if meets_target else 1


if __name__ == "__main__":
    sys.exit(main())
