"""Kernel interface and shared machinery for the histogram dynamic program.

Every kernel solves the same problem — the bucket-boundary recurrence of
Eq. 2,

    OPT[j, b] = min_{i < j} h(OPT[i, b-1], BERR(i+1, j)),

with ``h = +`` for cumulative and ``h = max`` for maximum-error objectives —
and returns the same artefact, a :class:`DynamicProgramResult` holding the
optimal errors and back-pointers for every budget up to ``B``.  Kernels
differ only in how they sweep the split points:

* :class:`~repro.histograms.kernels.exact.ExactKernel` — the reference
  ``O(B n^2)`` row sweep, one vectorised inner minimisation per prefix end;
* :class:`~repro.histograms.kernels.vectorized.VectorizedKernel` — the same
  asymptotics with zero Python inner loops, against a precomputed
  lower-triangular bucket-cost matrix;
* :class:`~repro.histograms.kernels.divide_conquer.DivideConquerKernel` —
  ``O(B n log n)`` monotone split-point divide and conquer for the
  cumulative metrics.

All kernels drive the bucket-cost oracle exclusively through the batch
:meth:`~repro.histograms.cost_base.BucketCostFunction.costs_for_spans`
interface, so a new metric only has to implement the oracle once to work
with every kernel.
"""

from __future__ import annotations

import abc
from typing import List, Tuple

import numpy as np

from ...core.histogram import Bucket, Histogram
from ...exceptions import SynopsisError
from ..cost_base import BucketCostFunction

__all__ = ["DPKernel", "DynamicProgramResult", "combine", "seed_first_row"]


def combine(prefix_errors: np.ndarray, bucket_costs: np.ndarray, aggregation: str) -> np.ndarray:
    """Eq. 2's ``h`` combiner: ``+`` for cumulative, ``max`` for maximum error."""
    if aggregation == "sum":
        return prefix_errors + bucket_costs
    return np.maximum(prefix_errors, bucket_costs)


def seed_first_row(cost_fn: BucketCostFunction, n: int) -> np.ndarray:
    """Row 1 of the DP: the cost of covering each prefix with a single bucket."""
    ends = np.arange(n, dtype=np.int64)
    return np.asarray(cost_fn.costs_for_spans(np.zeros(n, dtype=np.int64), ends), dtype=float)


class DynamicProgramResult:
    """Full DP table: optimal errors and back-pointers for every budget ``b <= B``.

    Keeping the whole table around lets callers (notably the Figure 2
    experiments, which sweep the bucket budget) extract the optimal histogram
    for *every* budget from a single DP run.
    """

    def __init__(
        self,
        cost_fn: BucketCostFunction,
        errors: np.ndarray,
        parents: "np.ndarray | None" = None,
    ) -> None:
        self._cost_fn = cost_fn
        self._errors = errors
        self._parents = parents

    @property
    def max_buckets(self) -> int:
        """The largest budget the table was computed for."""
        return self._errors.shape[0]

    def optimal_error(self, buckets: int) -> float:
        """Optimal objective value achievable with ``buckets`` buckets."""
        self._check_budget(buckets)
        return float(self._errors[buckets - 1, -1])

    def optimal_errors(self) -> np.ndarray:
        """Optimal objective values for every budget ``1..max_buckets`` (a copy)."""
        return self._errors[:, -1].copy()

    def boundaries(self, buckets: int) -> List[Tuple[int, int]]:
        """Optimal bucket spans for the given budget."""
        self._check_budget(buckets)
        n = self._errors.shape[1]
        spans: List[Tuple[int, int]] = []
        j = n - 1
        b = buckets - 1
        while j >= 0:
            split = self._parent(b, j)
            spans.append((split + 1, j))
            j = split
            b = max(b - 1, 0)
        spans.reverse()
        return spans

    def _parent(self, b: int, j: int) -> int:
        """Optimal split for cell ``(row b, prefix end j)`` of the table.

        Kernels that store the full back-pointer matrix answer from it;
        kernels that only store the error rows (the vectorised one — its
        sweep computes row minima without argmins) reconstruct the split on
        demand with one batch oracle call, reproducing the stored-parent
        semantics exactly: cells with fewer items than buckets carry the
        solution of the largest feasible budget, and ties break towards the
        smallest split.
        """
        if self._parents is not None:
            return int(self._parents[b, j])
        b = min(b, j)
        if b == 0:
            return -1
        prev = self._errors[b - 1]
        starts = np.arange(b, j + 1, dtype=np.int64)
        costs = self._cost_fn.costs_for_spans(starts, np.full(starts.shape, j, dtype=np.int64))
        candidates = combine(prev[starts - 1], costs, self._cost_fn.aggregation)
        return int(starts[np.argmin(candidates)]) - 1

    def histogram(self, buckets: int) -> Histogram:
        """Optimal histogram (boundaries + representatives) for the given budget."""
        boundaries = self.boundaries(buckets)
        buckets_list = [
            Bucket(start=start, end=end, representative=self._cost_fn.representative(start, end))
            for start, end in boundaries
        ]
        return Histogram(buckets_list, self._cost_fn.domain_size)

    def _check_budget(self, buckets: int) -> None:
        if not 1 <= buckets <= self.max_buckets:
            raise SynopsisError(
                f"budget {buckets} outside the computed range [1, {self.max_buckets}]"
            )


class DPKernel(abc.ABC):
    """One interchangeable solver for the histogram dynamic program."""

    #: Registry name of the kernel (``"exact"``, ``"vectorized"``, ...).
    name: str = ""

    def available(self) -> bool:
        """Whether this kernel can run at all in the current environment.

        The numpy kernels are always available; the compiled kernels depend
        on an optional backend (a C compiler) and report ``False``
        without one, which drops them from ``available_kernels()`` and from
        ``auto`` resolution.
        """
        return True

    def supports(self, cost_fn: BucketCostFunction) -> bool:
        """Whether this kernel can solve the DP for the given oracle exactly."""
        return True

    @abc.abstractmethod
    def solve(self, cost_fn: BucketCostFunction, max_buckets: int) -> DynamicProgramResult:
        """Run the DP for all budgets ``1..max_buckets``."""

    # ------------------------------------------------------------------
    def _validate(self, cost_fn: BucketCostFunction, max_buckets: int) -> Tuple[int, int, str]:
        """Shared input validation; returns ``(n, clamped_budget, aggregation)``."""
        n = cost_fn.domain_size
        if n <= 0:
            raise SynopsisError("cannot build a histogram over an empty domain")
        if max_buckets < 1:
            raise SynopsisError("the bucket budget must be at least 1")
        aggregation = cost_fn.aggregation
        if aggregation not in ("sum", "max"):
            raise SynopsisError(f"unknown aggregation {aggregation!r}")
        return n, min(max_buckets, n), aggregation

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
