#!/usr/bin/env python
"""Wavelet-DP ablation: tabulated engine vs. the recursive reference oracle.

Emits ``BENCH_wavelet_dp.json``, the wavelet-side counterpart of
``BENCH_kernels.json``:

    PYTHONPATH=src python benchmarks/bench_wavelet_dp.py [--output ...] [--smoke]

Two Figure-4-scale headline configurations (n = 256, B = 16, one cumulative
and one maximum metric) time a full restricted-DP solve of both engines.
Every timed run is held to *bit-identical* optimal errors and retained sets
— both solvers score leaves through one batch-independent function and
share one tie-breaking order, so any difference at all would be a bug, not
noise.  A smaller ablation
(non-power-of-two domain) checks the whole budget sweep ``0..B`` against
per-budget reference re-solves, and a sweep section records the
all-budgets-in-one-pass advantage of the tabulation.  One more ablation row
runs deterministic integer frequencies, where different retained-ancestor
subsets reach exactly equal incoming values: the engine keeps those as
separate states and the reference memoises them as one.

``--smoke`` runs only small instances with the equality assertions and no
speedup gate — the CI-friendly mode.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from _env import environment
from repro._version import __version__
from repro.datasets import zipf_value_pdf
from repro.models.frequency import FrequencyDistributions
from repro.wavelets.nonsse import RestrictedWaveletDP
from repro.wavelets.reference import ReferenceWaveletDP

#: The acceptance target this benchmark tracks: the tabulated engine must
#: beat the recursive reference by at least this factor on every headline.
TARGET_SPEEDUP = 10.0


def check_identical(metric, budget, fast_result, reference_result):
    """Raise unless both engines agree bit for bit (error and retained set)."""
    fast_error, fast_synopsis = fast_result
    reference_error, reference_synopsis = reference_result
    if fast_error != reference_error:
        raise AssertionError(
            f"{metric} B={budget}: tabulated error {fast_error!r} "
            f"!= reference {reference_error!r}"
        )
    if fast_synopsis.indices != reference_synopsis.indices:
        raise AssertionError(
            f"{metric} B={budget}: retained sets differ "
            f"({fast_synopsis.indices} vs {reference_synopsis.indices})"
        )


def run_headline(distributions, n, metric, budget):
    """One timed solve per engine at full scale, plus the sweep economics."""
    print(f"[headline/{metric}] n={n}, B={budget}")
    start = time.perf_counter()
    reference_result = ReferenceWaveletDP(distributions, metric).solve(budget)
    reference_seconds = time.perf_counter() - start

    start = time.perf_counter()
    fast_result = RestrictedWaveletDP(distributions, metric).solve(budget)
    tabulated_seconds = time.perf_counter() - start
    check_identical(metric, budget, fast_result, reference_result)

    # The sweep: every budget 0..B from the single tabulation just built,
    # versus re-tabulating from scratch once per budget.
    start = time.perf_counter()
    swept = RestrictedWaveletDP(distributions, metric).sweep(budget)
    sweep_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for b in range(budget + 1):
        RestrictedWaveletDP(distributions, metric).solve(b)
    per_budget_seconds = time.perf_counter() - start
    for b, entry in enumerate(swept):
        if entry[0] != RestrictedWaveletDP(distributions, metric).optimal_error(b):
            raise AssertionError(f"{metric}: sweep column {b} diverges from a fresh solve")

    speedup = reference_seconds / tabulated_seconds
    print(
        f"  reference {reference_seconds:8.2f}s   tabulated {tabulated_seconds:8.3f}s   "
        f"{speedup:7.1f}x   sweep(0..{budget}) {sweep_seconds:.3f}s "
        f"vs per-budget {per_budget_seconds:.3f}s"
    )
    return {
        "name": f"headline/{metric}",
        "config": {"n": n, "budget": budget, "metric": metric, "model": "value_pdf",
                   "dataset": "zipf"},
        "reference_seconds": round(reference_seconds, 4),
        "tabulated_seconds": round(tabulated_seconds, 4),
        "speedup_vs_reference": round(speedup, 2),
        "optimal_error": fast_result[0],
        "retained": len(fast_result[1]),
        "optimal_errors_identical": True,
        "retained_sets_identical": True,
        "sweep": {
            "budgets": budget + 1,
            "one_tabulation_seconds": round(sweep_seconds, 4),
            "fresh_solve_per_budget_seconds": round(per_budget_seconds, 4),
            "sweep_speedup": round(per_budget_seconds / max(sweep_seconds, 1e-9), 2),
        },
    }


def run_all_budget_equivalence(distributions, n, metric, budget, dataset="zipf"):
    """Every budget 0..B of one sweep against per-budget reference re-solves."""
    name = f"ablation/{dataset}/{metric}"
    print(f"[{name}] n={n}, budgets 0..{budget}")
    fast = RestrictedWaveletDP(distributions, metric).prepare(budget)
    reference = ReferenceWaveletDP(distributions, metric)
    start = time.perf_counter()
    for b in range(budget + 1):
        check_identical(metric, b, fast.solve(b), reference.solve(b))
    seconds = time.perf_counter() - start
    print(f"  {budget + 1} budgets identical ({seconds:.1f}s)")
    return {
        "name": name,
        "config": {"n": n, "budgets": f"0..{budget}", "metric": metric, "dataset": dataset},
        "budgets_checked": budget + 1,
        "optimal_errors_identical": True,
        "retained_sets_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_wavelet_dp.json"),
        help="where to write the JSON artefact (default: repo root)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small instances, equality assertions only, no speedup gate (CI mode)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        headline_n, headline_budget = 64, 8
        ablation_n, ablation_budget = 24, 6
    else:
        headline_n, headline_budget = 256, 16
        ablation_n, ablation_budget = 48, 12

    headline_model = zipf_value_pdf(headline_n, skew=1.1, uncertainty=0.4, seed=42)
    headline_dists = headline_model.to_frequency_distributions()
    headline = [
        run_headline(headline_dists, headline_n, metric, headline_budget)
        for metric in ("sae", "mae")
    ]

    # Non-power-of-two domain: padding leaves exercise the virtual-zero path.
    ablation_model = zipf_value_pdf(ablation_n, skew=1.1, uncertainty=0.4, seed=7)
    ablation_dists = ablation_model.to_frequency_distributions()
    ablation = [
        run_all_budget_equivalence(ablation_dists, ablation_n, metric, ablation_budget)
        for metric in ("sae", "sare", "mae", "mare")
    ]
    integer_values = np.random.default_rng(7).integers(0, 3, size=ablation_n).astype(float)
    ablation.append(
        run_all_budget_equivalence(
            FrequencyDistributions.deterministic(integer_values),
            ablation_n, "sae", ablation_budget, dataset="integer",
        )
    )

    worst_speedup = min(entry["speedup_vs_reference"] for entry in headline)
    meets_target = args.smoke or worst_speedup >= TARGET_SPEEDUP
    payload = {
        "benchmark": "wavelet_dp",
        "generated_by": "benchmarks/bench_wavelet_dp.py",
        "version": __version__,
        "mode": "smoke" if args.smoke else "full",
        "environment": environment(),
        "target_speedup_vs_reference": TARGET_SPEEDUP,
        "meets_target": meets_target,
        "worst_headline_speedup": worst_speedup,
        "headline": headline,
        "all_budget_equivalence": ablation,
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nworst headline speedup {worst_speedup}x "
        f"(target {TARGET_SPEEDUP}x, {'met' if meets_target else 'MISSED'}); wrote {output}"
    )
    return 0 if meets_target else 1


if __name__ == "__main__":
    sys.exit(main())
