#!/usr/bin/env python
"""Partitioned-synopsis benchmark: sharded build speedup + allocation audit.

Standalone (like the other ``bench_*.py`` artefact emitters) so CI and later
PRs can track the partition trajectory from one machine-readable artefact:

    PYTHONPATH=src python benchmarks/bench_partition.py [--smoke] [--output BENCH_partition.json]

Two sections:

* **parallel build** — one large single-domain histogram DP (the pre-partition
  baseline) against the sharded build, which sweeps its shards on a pool of
  ``min(K, os.cpu_count())`` threads.  Sharding wins twice: the DP is
  superlinear in ``n``, so ``K`` shards of ``n/K`` items do roughly ``1/K``
  of the arithmetic, and the threads then overlap the shard sweeps.  The
  headline target: the partitioned build must beat the single-domain DP by
  at least 2x at ``n >= 16384`` with 4 shards.  Each build is timed
  :data:`REPEATS` times and reported as its median with the min and max;
  the speedup is median against median.
* **allocation audit** — on a matrix of small shard-curve instances built
  from real per-shard DP sweeps, the exact min-plus allocator must match
  exhaustive enumeration of every budget split *exactly*; the greedy
  heuristic's optimality gap is reported (not required to be zero — that is
  the point of keeping it).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from _env import environment
from repro import FrequencyDistributions, SynopsisSpec, build, expected_error
from repro._version import __version__
from repro.core.spec import PartitionSpec
from repro.partition import BudgetAllocator, build_shards, shard_spans

#: Acceptance target: partitioned build vs the single-domain DP.
TARGET_SPEEDUP = 2.0
SMOKE_TARGET_SPEEDUP = 1.5

#: Timed runs of each build; the report keeps their median, min and max.
REPEATS = 5


def make_data(domain_size: int, seed: int) -> FrequencyDistributions:
    """Deterministic counts with a bounded value grid (realistic frequencies)."""
    rng = np.random.default_rng(seed)
    frequencies = rng.poisson(50.0, domain_size).astype(float)
    return FrequencyDistributions.deterministic(frequencies)


def timed(run):
    """The last result of ``REPEATS`` calls of ``run``, and each call's wall seconds."""
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = run()
        seconds.append(time.perf_counter() - start)
    return result, seconds


def spread(values):
    """The median of ``values`` with its min and max, rounded."""
    return {
        "median": round(statistics.median(values), 4),
        "min": round(min(values), 4),
        "max": round(max(values), 4),
    }


def bench_parallel_build(domain_size: int, shards: int, budget: int):
    """Single-domain DP vs the sharded build, same budget."""
    data = make_data(domain_size, seed=42)
    spec = SynopsisSpec(
        kind="partitioned",
        budget=budget,
        metric="sse",
        partition=PartitionSpec(shards=shards),
    )
    flat, flat_runs = timed(lambda: build(data, SynopsisSpec(budget=budget, metric="sse")))
    partitioned, partitioned_runs = timed(lambda: build(data, spec))
    flat_seconds = statistics.median(flat_runs)
    partitioned_seconds = statistics.median(partitioned_runs)
    threads = min(shards, os.cpu_count() or 1)  # the shard builder's pool size

    flat_error = expected_error(data, flat, "sse")
    part_error = expected_error(data, partitioned, "sse")
    if part_error + 1e-9 < flat_error:
        raise AssertionError(
            "a partitioned histogram cannot beat the unrestricted optimal DP"
        )
    speedup = flat_seconds / partitioned_seconds
    print(
        f"[build n={domain_size} B={budget} K={shards}] median of {REPEATS}: "
        f"flat {flat_seconds:.2f}s | "
        f"partitioned on {threads} thread(s) {partitioned_seconds:.2f}s ({speedup:.1f}x) | "
        f"error +{100 * (part_error / flat_error - 1):.2f}%"
    )
    return {
        "domain_size": domain_size,
        "shards": shards,
        "budget": budget,
        "threads": threads,
        "repeats": REPEATS,
        "flat_build_seconds": spread(flat_runs),
        "partitioned_seconds": spread(partitioned_runs),
        "speedup": round(speedup, 2),
        "flat_expected_sse": round(flat_error, 6),
        "partitioned_expected_sse": round(part_error, 6),
        "partitioned_error_overhead_pct": round(100 * (part_error / flat_error - 1), 3),
    }


def bench_allocation(domain_size: int):
    """Exact vs greedy vs exhaustive enumeration on real per-shard curves."""
    cases = []
    matrix = [
        ("sse", "histogram", 3, 9),
        ("sse", "histogram", 4, 10),
        ("sae", "histogram", 3, 8),
        ("sae", "wavelet", 3, 7),
    ]
    for metric, base, shards, budget in matrix:
        data = make_data(domain_size, seed=shards * 100 + budget)
        spec = SynopsisSpec(
            kind="partitioned",
            budget=budget,
            metric=metric,
            partition=PartitionSpec(shards=shards, base=base),
        )
        builds = build_shards(data, shard_spans(data, spec.partition), spec)
        allocator = BudgetAllocator([b.curve for b in builds], aggregation="sum")
        exact = allocator.allocate(budget, "exact")
        greedy = allocator.allocate(budget, "greedy")
        enumerated = allocator.brute_force(budget)
        matches = abs(exact.total_error - enumerated.total_error) <= 1e-9 * max(
            1.0, enumerated.total_error
        )
        gap_pct = (
            0.0
            if enumerated.total_error == 0
            else 100 * (greedy.total_error / enumerated.total_error - 1)
        )
        print(
            f"[alloc {metric}/{base} K={shards} B={budget}] exact {exact.total_error:.4f} "
            f"(splits {exact.budgets}) | enumerated {enumerated.total_error:.4f} "
            f"{'==' if matches else '!='} | greedy gap {gap_pct:.2f}%"
        )
        cases.append(
            {
                "metric": metric,
                "base": base,
                "shards": shards,
                "budget": budget,
                "exact_error": exact.total_error,
                "exact_split": list(exact.budgets),
                "enumerated_error": enumerated.total_error,
                "exact_matches_enumeration": bool(matches),
                "greedy_error": greedy.total_error,
                "greedy_split": list(greedy.budgets),
                "greedy_gap_pct": round(gap_pct, 4),
            }
        )
    return {
        "cases": cases,
        "all_exact_match_enumeration": all(c["exact_matches_enumeration"] for c in cases),
        "max_greedy_gap_pct": round(max(c["greedy_gap_pct"] for c in cases), 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_partition.json"),
        help="where to write the JSON artefact (default: repo root)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small CI instance (n=2048, relaxed speedup target)",
    )
    args = parser.parse_args(argv)

    domain_size = 2048 if args.smoke else 16384
    budget = 32 if args.smoke else 64
    shards = 4
    target = SMOKE_TARGET_SPEEDUP if args.smoke else TARGET_SPEEDUP

    build_section = bench_parallel_build(domain_size, shards, budget)
    allocation_section = bench_allocation(96 if args.smoke else 192)

    meets_target = (
        build_section["speedup"] >= target
        and allocation_section["all_exact_match_enumeration"]
    )
    payload = {
        "benchmark": "partition",
        "generated_by": "benchmarks/bench_partition.py",
        "version": __version__,
        "smoke": args.smoke,
        "environment": environment(),
        "target_parallel_speedup": target,
        "meets_target": meets_target,
        "parallel_build": build_section,
        "allocation": allocation_section,
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\npartitioned build speedup {build_section['speedup']}x "
        f"(target {target}x); exact allocator "
        f"{'==' if allocation_section['all_exact_match_enumeration'] else '!='} "
        f"enumeration; wrote {output}"
    )
    return 0 if meets_target else 1


if __name__ == "__main__":
    sys.exit(main())
