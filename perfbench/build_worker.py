"""The build-mix program process: store misses through ``SynopsisStore.get_or_build``.

Run by ``run.py`` as ``python build_worker.py CONFIG_JSON``.  After set-up
(imports, compiled backend, store open, base dataset) it prints ``ready`` and
waits for one line on stdin: ``exit`` ends it there (a set-up-only launch),
``go`` runs the timed loop and prints one JSON result line.

Every job is a miss: each derives its own dataset from the run seed, so its
fingerprint, and with it the store key, is new.  Deriving the data is
untimed; only the ``get_or_build`` call is.  The jobs cycle through three
kinds that exercise the compiled kernel, the numpy kernel and the wavelet DP:

* ``hist-sse``: exact SSE histogram, B=64, frequency-ranked marginals
  (auto resolves to ``compiled_divide_conquer``);
* ``hist-sae``: SAE histogram, B=32, shuffled zipf value-pdf (``vectorized``);
* ``wave-sae``: SAE wavelet through the restricted DP, B=16.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from measure import Accounting, peak_rss_mb
from tracer import Tracer, delta

KINDS = ("hist-sse", "hist-sae", "wave-sae")
#: Domain sizes that put each kind near 0.1 s per build on a 2-vCPU host.
SIZES = {"hist-sse": 24_576, "hist-sae": 160, "wave-sae": 128}
BUDGETS = {"hist-sse": 64, "hist-sae": 32, "wave-sae": 16}
#: Grid size of the frequency-ranked marginals behind ``hist-sse``.
GRID = 64
#: The first jobs (two rounds of one job per kind) warm caches; untimed.
WARMUP_JOBS = 2 * len(KINDS)
#: Domain size of the wave-sae instance checked against the reference DP.
REFERENCE_WAVELET_N = 16


def specs() -> Dict[str, Any]:
    from repro.core.spec import SynopsisSpec

    return {
        "hist-sse": SynopsisSpec(kind="histogram", budget=BUDGETS["hist-sse"], metric="sse"),
        "hist-sae": SynopsisSpec(kind="histogram", budget=BUDGETS["hist-sae"], metric="sae"),
        "wave-sae": SynopsisSpec(kind="wavelet", budget=BUDGETS["wave-sae"], metric="sae"),
    }


def ranked_marginals(n: int, seed: int):
    """Per-item pdfs over a shared value grid, items sorted by expectation.

    The rank-frequency presentation under which the SSE oracle certifies
    monotone split points, so the divide-and-conquer kernels apply.
    """
    from repro.models.frequency import FrequencyDistributions
    from repro.models.values import ValueGrid

    rng = np.random.default_rng(seed)
    values = np.concatenate([[0.0], np.sort(rng.uniform(1.0, 100.0, GRID - 1))])
    centers = rng.integers(1, GRID - 1, size=n)
    mass = rng.uniform(0.5, 0.9, size=n)
    probabilities = np.zeros((n, GRID))
    rows = np.arange(n)
    probabilities[rows, centers] = mass
    probabilities[rows, centers - 1] = (1.0 - mass) * rng.uniform(0.3, 0.7, n)
    probabilities[rows, centers + 1] = 1.0 - probabilities.sum(axis=1)
    probabilities = probabilities[np.argsort(probabilities @ values)]
    return FrequencyDistributions(ValueGrid(values), probabilities)


class JobList:
    """The seeded job list: job ``i`` is a pure function of ``(seed, i)``."""

    def __init__(self, seed: int):
        self.seed = seed
        # Set-up's dataset generation: the hist-sse base marginals.  Each
        # hist-sse job rescales the base grid, which keeps the rank order
        # (and the work) but changes the content, hence the store key.
        self.base = ranked_marginals(SIZES["hist-sse"], seed)

    def kind(self, index: int) -> str:
        return KINDS[index % len(KINDS)]

    def data(self, index: int):
        from repro.datasets import zipf_value_pdf
        from repro.models.frequency import FrequencyDistributions
        from repro.models.values import ValueGrid

        kind = self.kind(index)
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(index,)))
        if kind == "hist-sse":
            scale = 1.0 + rng.random()
            return FrequencyDistributions(
                ValueGrid(self.base.grid.values * scale), self.base.probabilities
            )
        return zipf_value_pdf(
            SIZES[kind], skew=1.1, uncertainty=0.4, seed=int(rng.integers(2**31))
        )


def identical(a, b) -> bool:
    """Same kind, domain and columns, bit for bit."""
    if type(a) is not type(b) or a.domain_size != b.domain_size:
        return False
    left, right = a.column_arrays(), b.column_arrays()
    return left.keys() == right.keys() and all(
        left[name].dtype == right[name].dtype and np.array_equal(left[name], right[name])
        for name in left
    )


def disk_bytes(directory: Path):
    return lambda: sum(path.stat().st_size for path in directory.iterdir() if path.is_file())


def reference_checks(jobs: JobList, first: Dict[str, int], built: Dict[int, Any],
                     store) -> Dict[str, bool]:
    """One untimed instance per kind against a reference path."""
    from dataclasses import replace

    from repro.core.builders import build
    from repro.datasets import zipf_value_pdf
    from repro.wavelets.reference import ReferenceWaveletDP

    spec = specs()
    checks = {}
    for kind, kernel in (("hist-sse", "divide_conquer"), ("hist-sae", "exact")):
        index = first[kind]
        reference = build(jobs.data(index), replace(spec[kind], kernel=kernel))
        checks[f"{kind}=={kernel}"] = identical(reference, built[index])
    small = zipf_value_pdf(REFERENCE_WAVELET_N, skew=1.1, uncertainty=0.4, seed=jobs.seed)
    fast = store.get_or_build(small, spec["wave-sae"])
    _, expected = ReferenceWaveletDP(small.to_frequency_distributions(), "sae").solve(
        BUDGETS["wave-sae"]
    )
    checks["wave-sae==reference"] = fast.indices == expected.indices and fast == expected
    return checks


def run(config: Dict[str, Any], jobs: JobList, store) -> Dict[str, Any]:
    """The timed loop, then the correctness checks; returns the result record."""
    from repro.histograms.factory import make_cost_function
    from repro.histograms.kernels.registry import resolve_kernel
    from repro.service import SynopsisStore, fingerprint_data

    spec = specs()
    store_dir = Path(config["store"])
    tracer = Tracer(disk_bytes=disk_bytes(store_dir)) if config["trace"] else None
    latencies: Dict[str, List[float]] = {kind: [] for kind in KINDS}
    traced: Dict[str, List[float]] = {kind: [] for kind in KINDS}
    accounting = Accounting()
    keys: List[Tuple[int, str]] = []
    built: Dict[int, Any] = {}
    first: Dict[str, int] = {}

    index = 0
    for _ in range(WARMUP_JOBS):
        store.get_or_build(jobs.data(index), spec[jobs.kind(index)])
        index += 1
    deadline = time.perf_counter() + float(config["seconds"])
    while time.perf_counter() < deadline:
        # A round is one job of each kind.  Traced runs alternate untraced and
        # traced rounds, so the overhead is measured against the same host phase.
        tracing = tracer is not None and (index // len(KINDS)) % 2 == 1
        if tracing:
            tracer.install()
        for _ in KINDS:
            kind = jobs.kind(index)
            data = jobs.data(index)
            if tracer is not None:
                tracer.label = kind
            began = time.perf_counter()
            try:
                synopsis = store.get_or_build(data, spec[kind])
            except Exception as exc:  # noqa: BLE001 - counted as a failed build
                print(f"build {index} ({kind}) failed: {exc!r}", file=sys.stderr)
                accounting.record("error")
                latencies[kind].append(math.inf)
            else:
                elapsed = time.perf_counter() - began
                accounting.record("ok")
                (traced if tracing else latencies)[kind].append(elapsed)
                keys.append((index, spec[kind].store_key(fingerprint_data(data))))
                built[index] = synopsis
                first.setdefault(kind, index)
            index += 1
        if tracing:
            tracer.uninstall()
    hwm = peak_rss_mb()

    resolved = {
        kind: resolve_kernel(
            "auto", make_cost_function(jobs.data(first[kind]), spec[kind].metric)
        ).name
        for kind in ("hist-sse", "hist-sae")
    }
    fresh = SynopsisStore(store_dir, format="columnar")
    trace = None
    if tracer is None:
        reread = all(identical(fresh.get(key), built[i]) for i, key in keys)
    else:
        # Re-reading every entry through a fresh handle, traced, gives
        # store.load on this workload.
        builds = tracer.snapshot()
        tracer.label = None
        tracer.install()
        try:
            reread = all(identical(fresh.get(key), built[i]) for i, key in keys)
        finally:
            tracer.uninstall()
        trace = {"builds": builds, "reread": delta(tracer.snapshot(), builds)}
    checks = {"reread_bit_identical": reread, **reference_checks(jobs, first, built, store)}
    return {
        "latencies": latencies,
        "traced": traced,
        "accounting": accounting.as_dict(),
        "peak_rss_mb": hwm,
        "resolved_kernels": resolved,
        "checks": checks,
        "jobs": index,
        "trace": trace,
    }


def main(argv: List[str]) -> int:
    config = json.loads(argv[1])
    from repro._compiled import get_backend
    from repro.service import SynopsisStore

    backend = get_backend()
    store = SynopsisStore(config["store"], format="columnar")
    jobs = JobList(int(config["seed"]))
    print(f"ready backend={backend.name if backend else 'none'}", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    print(json.dumps(run(config, jobs, store)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
