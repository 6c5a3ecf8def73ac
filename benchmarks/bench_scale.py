#!/usr/bin/env python
"""Scale benchmark: exact builds to n=1M via the compiled kernel backend.

Emitted as ``BENCH_scale.json``, the artefact this PR's headline claim lives
in: **an exact SSE histogram build at n=1,048,576 and B=64 completes in
under 10 seconds on one core** through the compiled divide-and-conquer
kernel — the same bit-identical optimum the numpy kernels produce, three
orders of magnitude past where the ``O(B n^2)`` reference stops being
interactive.

    PYTHONPATH=src python benchmarks/bench_scale.py [--smoke] [--output ...]

Two sections:

* **histogram scaling** — a domain-size curve (16k -> 1M full, smaller in
  ``--smoke``) of the compiled vs the numpy divide-and-conquer kernel on a
  frequency-ranked probabilistic dataset over a quantised 64-value grid.
  At every size up to ``--verify-cap`` the numpy kernel runs too and the
  full DP tables (errors *and* back-pointers) are asserted ``array_equal``
  — the compiled kernel must be bit-identical, not merely close.  Beyond
  the cap only the compiled kernel runs (the numpy reference would take
  minutes, which is the point of the backend).
* **wavelet restricted DP** — one SAE restricted wavelet DP solve (the
  paper's Theorem 8 construction) at ``B = 16`` and ``n = 512`` (``n = 128``
  in ``--smoke``), recording its wall clock and optimal error.  Its leaf
  errors come from the numpy prefix-sum sweep of
  :mod:`repro.wavelets.leaf_errors`; no compiled kernel is involved.

The dataset is built directly as a ``FrequencyDistributions`` matrix over a
small quantised value grid (each item's pdf spread over three adjacent grid
cells, rows sorted by expectation so the SSE oracle certifies monotone
split points).  Building it through the per-item model constructors would
cost more than the DP itself at n=1M.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from _env import environment
from repro._compiled import get_backend
from repro._version import __version__
from repro.datasets import zipf_value_pdf
from repro.histograms import SseCost
from repro.histograms.kernels import get_kernel
from repro.models import FrequencyDistributions, ValueGrid
from repro.wavelets.nonsse import RestrictedWaveletDP

#: The acceptance target this benchmark tracks: the compiled kernel must
#: finish the headline exact build inside this wall-clock budget.
HEADLINE_N = 1_048_576
HEADLINE_BUCKETS = 64
TARGET_SECONDS = 10.0

FULL_SIZES = (16_384, 65_536, 262_144, HEADLINE_N)
SMOKE_SIZES = (1_024, 4_096)
GRID_SIZE = 64

WAVELET_N = 512
SMOKE_WAVELET_N = 128
WAVELET_BUDGET = 16


def make_dataset(n: int, seed: int = 11) -> FrequencyDistributions:
    """A frequency-ranked probabilistic dataset over a quantised value grid.

    Each item's pdf puts 50-90% of its mass on one of the ``GRID_SIZE``
    shared frequency values and the rest on the two neighbours, and the
    items are sorted by expected frequency — the rank-frequency presentation
    under which the SSE oracle certifies monotone split points and the
    divide-and-conquer kernels apply.
    """
    rng = np.random.default_rng(seed)
    values = np.concatenate([[0.0], np.sort(rng.uniform(1.0, 100.0, GRID_SIZE - 1))])
    centers = rng.integers(1, GRID_SIZE - 1, size=n)
    mass = rng.uniform(0.5, 0.9, size=n)
    probabilities = np.zeros((n, GRID_SIZE))
    rows = np.arange(n)
    probabilities[rows, centers] = mass
    probabilities[rows, centers - 1] = (1.0 - mass) * rng.uniform(0.3, 0.7, n)
    probabilities[rows, centers + 1] = 1.0 - probabilities.sum(axis=1)
    expectations = probabilities @ values
    probabilities = probabilities[np.argsort(expectations)]
    return FrequencyDistributions(ValueGrid(values), probabilities, copy=False)


def histogram_scaling(sizes, buckets, verify_cap):
    """The compiled-vs-numpy divide-and-conquer curve over domain sizes."""
    curve = []
    for n in sizes:
        distributions = make_dataset(n)
        start = time.perf_counter()
        cost_fn = SseCost(distributions)
        oracle_seconds = time.perf_counter() - start
        assert cost_fn.supports_monotone_splits

        start = time.perf_counter()
        compiled = get_kernel("compiled_divide_conquer").solve(cost_fn, buckets)
        compiled_seconds = time.perf_counter() - start
        optimum = compiled.optimal_error(buckets)

        entry = {
            "n": n,
            "buckets": buckets,
            "oracle_seconds": round(oracle_seconds, 4),
            "compiled_seconds": round(compiled_seconds, 4),
            "optimal_error": optimum,
        }
        if n <= verify_cap:
            start = time.perf_counter()
            reference = get_kernel("divide_conquer").solve(cost_fn, buckets)
            numpy_seconds = time.perf_counter() - start
            identical = np.array_equal(compiled._errors, reference._errors) and np.array_equal(
                compiled._parents, reference._parents
            )
            if not identical:
                raise AssertionError(f"compiled DP tables diverge from numpy at n={n}")
            entry["numpy_seconds"] = round(numpy_seconds, 4)
            entry["speedup_vs_numpy"] = round(numpy_seconds / compiled_seconds, 2)
            entry["bit_identical_tables"] = True
            note = f"numpy {numpy_seconds:7.2f}s  {entry['speedup_vs_numpy']:5.1f}x  bit-identical"
        else:
            entry["numpy_seconds"] = None
            note = "numpy skipped (beyond --verify-cap)"
        print(f"[scale] n={n:>9,}  compiled {compiled_seconds:7.2f}s  {note}")
        curve.append(entry)
    return curve


def wavelet_restricted_dp(n, budget=WAVELET_BUDGET, seed=42):
    """One timed SAE restricted wavelet DP solve on a zipf value-pdf."""
    model = zipf_value_pdf(n, skew=1.1, uncertainty=0.4, seed=seed)
    distributions = model.to_frequency_distributions()
    start = time.perf_counter()
    error, synopsis = RestrictedWaveletDP(distributions, "sae").solve(budget)
    seconds = time.perf_counter() - start
    print(
        f"[wavelet] sae n={n} B={budget} |V|={distributions.values.size}  "
        f"{seconds:7.3f}s  optimal error {error!r}"
    )
    return {
        "metric": "sae",
        "n": n,
        "budget": budget,
        "dataset": "zipf",
        "grid_size": int(distributions.values.size),
        "seconds": round(seconds, 4),
        "optimal_error": error,
        "retained": len(synopsis),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_scale.json"),
        help="where to write the JSON artefact (default: repo root)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small domain sizes only (CI-friendly; the headline target is waived)",
    )
    parser.add_argument(
        "--verify-cap",
        type=int,
        default=262_144,
        help="largest n at which the numpy kernel also runs for the bit-identity check",
    )
    args = parser.parse_args(argv)

    backend = get_backend()
    if backend is None:
        print(
            "no compiled backend is available (no C compiler); "
            "nothing to measure",
            file=sys.stderr,
        )
        return 1
    print(f"compiled backend: {backend.name} ({backend.version})")

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    curve = histogram_scaling(sizes, HEADLINE_BUCKETS, args.verify_cap)
    wavelet = wavelet_restricted_dp(SMOKE_WAVELET_N if args.smoke else WAVELET_N)

    headline = next((entry for entry in curve if entry["n"] == HEADLINE_N), None)
    if args.smoke:
        meets_target = True  # smoke mode verifies correctness, not the wall clock
    else:
        meets_target = headline is not None and headline["compiled_seconds"] <= TARGET_SECONDS

    payload = {
        "benchmark": "scale",
        "generated_by": "benchmarks/bench_scale.py",
        "version": __version__,
        "mode": "smoke" if args.smoke else "full",
        "environment": environment(),
        "headline_config": {
            "n": HEADLINE_N,
            "buckets": HEADLINE_BUCKETS,
            "metric": "sse",
            "kernel": "compiled_divide_conquer",
        },
        "target_seconds": TARGET_SECONDS,
        "meets_target": meets_target,
        "headline_seconds": None if headline is None else headline["compiled_seconds"],
        "histogram_scaling": curve,
        "wavelet_restricted_dp": wavelet,
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    if headline is None:
        print(f"\nsmoke run (headline waived); wrote {output}")
    else:
        print(
            f"\nheadline n={HEADLINE_N:,} B={HEADLINE_BUCKETS}: "
            f"{headline['compiled_seconds']}s (target {TARGET_SECONDS}s, "
            f"{'met' if meets_target else 'MISSED'}); wrote {output}"
        )
    return 0 if meets_target else 1


if __name__ == "__main__":
    sys.exit(main())
