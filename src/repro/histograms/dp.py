"""Optimal histogram construction by dynamic programming (Eq. 2 of the paper).

The principle of optimality continues to hold for expected error objectives
over probabilistic data (Section 3): if the last bucket of the optimal
``B``-bucket histogram spans ``[i+1, n-1]``, the remaining buckets form an
optimal ``(B-1)``-bucket histogram of the prefix ``[0, i]``.  The recurrence

    OPT[j, b] = min_{i < j} h(OPT[i, b-1], BERR(i+1, j))

with ``h = +`` for cumulative and ``h = max`` for maximum error objectives
therefore finds the optimum exactly.  *How* the recurrence is swept is
delegated to a pluggable kernel (:mod:`repro.histograms.kernels`): the
``exact`` reference row sweep, the ``vectorized`` whole-row broadcast, or the
``divide_conquer`` monotone split-point scheme — all exact, differing only in
speed.  Every function here accepts a ``kernel`` name (default ``"auto"``,
which picks the fastest kernel suitable for the oracle).  One solve serves a
whole budget sweep: :class:`DynamicProgramResult` reads the optimal error,
bucketing and histogram off for every budget up to the largest.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..core.histogram import Bucket, Histogram
from .cost_base import BucketCostFunction
from .kernels import AUTO_KERNEL, DynamicProgramResult, resolve_kernel

__all__ = [
    "optimal_histogram",
    "histogram_from_boundaries",
    "solve_dynamic_program",
    "DynamicProgramResult",
]


def solve_dynamic_program(
    cost_fn: BucketCostFunction, max_buckets: int, kernel: str = AUTO_KERNEL
) -> DynamicProgramResult:
    """Run the histogram DP for all budgets ``1..max_buckets``.

    ``kernel`` names the DP solver to use (``"exact"``, ``"vectorized"``,
    ``"divide_conquer"`` or ``"auto"``); unsuitable choices fall back
    automatically, so the result is the optimum regardless.  Returns a
    :class:`DynamicProgramResult` from which the optimal error and bucketing
    can be read off for any budget up to ``max_buckets``.
    """
    return resolve_kernel(kernel, cost_fn).solve(cost_fn, max_buckets)


def histogram_from_boundaries(
    cost_fn: BucketCostFunction, boundaries: Sequence[Tuple[int, int]]
) -> Histogram:
    """Attach optimal representatives to an explicit bucketing."""
    buckets = [
        Bucket(start=start, end=end, representative=cost_fn.representative(start, end))
        for start, end in boundaries
    ]
    return Histogram(buckets, cost_fn.domain_size)


def optimal_histogram(
    cost_fn: BucketCostFunction, buckets: int, kernel: str = AUTO_KERNEL
) -> Histogram:
    """The optimal ``buckets``-bucket histogram under the oracle's objective."""
    result = solve_dynamic_program(cost_fn, buckets, kernel)
    return result.histogram(min(buckets, cost_fn.domain_size))
