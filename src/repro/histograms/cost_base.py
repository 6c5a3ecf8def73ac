"""Abstract bucket-cost oracle used by the histogram dynamic programs.

The paper's histogram constructions (Section 3) all share the same outer
structure: a dynamic program over bucket boundaries (Eq. 2) that repeatedly
asks *"what is the optimal cost of a single bucket spanning items
``[start, end]``, and which representative value achieves it?"*.  All the
per-metric analysis goes into answering that question from precomputed
prefix arrays.

:class:`BucketCostFunction` is that oracle interface.  Concrete subclasses
(:class:`~repro.histograms.sse.SseCost`, :class:`~repro.histograms.ssre.SsreCost`,
the SAE/SARE/MAE/MARE oracles) implement :meth:`cost_and_representative` and
the batch :meth:`costs_for_spans`, which evaluates an arbitrary vector of
``(start, end)`` spans in one shot.  The batch call is the contract the DP
kernels (:mod:`repro.histograms.kernels`) are written against: the exact row
sweep asks for all spans sharing one end, the vectorised kernel asks for the
whole lower-triangular cost matrix, and the divide-and-conquer kernel asks
for one ragged batch per recursion level.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

from ..exceptions import SynopsisError

__all__ = ["BucketCostFunction"]


class BucketCostFunction(abc.ABC):
    """Oracle for the optimal cost/representative of a single histogram bucket.

    Attributes
    ----------
    aggregation:
        ``"sum"`` for cumulative error objectives (the histogram's total error
        is the sum of bucket costs) or ``"max"`` for maximum-error objectives
        (the total is the maximum bucket cost).  This is the ``h`` combiner of
        Eq. 2 in the paper.
    """

    #: How bucket costs combine into the histogram objective.
    aggregation: str = "sum"

    #: Whether the bucket cost satisfies the concave quadrangle inequality
    #: ``cost(a, c) + cost(b, d) <= cost(a, d) + cost(b, c)`` for
    #: ``a <= b <= c <= d``, which makes the optimal split points of the DP
    #: monotone in the prefix end.  True for the additive metrics (weighted
    #: variance for SSE/SSRE, weighted median for SAE/SARE); oracles whose
    #: costs carry cross-item correction terms (the paper-variant SSE) set it
    #: to False so the divide-and-conquer kernel is not applied to them.
    supports_monotone_splits: bool = True

    #: Rough number of per-value columns a single span evaluation touches in
    #: :meth:`costs_for_spans` (1 for prefix-array oracles, the value-grid
    #: size for the pooled-median oracles).  Kernels use it to size batches
    #: so that one call stays within a bounded memory footprint.
    batch_cost_columns: int = 1

    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def domain_size(self) -> int:
        """Size ``n`` of the ordered item domain."""

    @abc.abstractmethod
    def cost_and_representative(self, start: int, end: int) -> Tuple[float, float]:
        """Optimal cost and representative of the bucket spanning ``[start, end]``.

        ``start`` and ``end`` are inclusive item indices with
        ``0 <= start <= end < domain_size``.
        """

    # ------------------------------------------------------------------
    # Derived conveniences
    # ------------------------------------------------------------------
    def cost(self, start: int, end: int) -> float:
        """Optimal cost of the bucket ``[start, end]``."""
        return self.cost_and_representative(start, end)[0]

    def representative(self, start: int, end: int) -> float:
        """Optimal representative value of the bucket ``[start, end]``."""
        return self.cost_and_representative(start, end)[1]

    def costs_for_spans(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Optimal costs of the buckets ``[starts[i], ends[i]]``, pairwise.

        This is the batch interface the DP kernels are written against:
        ``starts`` and ``ends`` are equal-length integer arrays and the result
        holds one cost per span.  Oracles backed by prefix arrays override it
        with a fully vectorised implementation; the default loops (kept only
        as a reference semantics for custom oracles).
        """
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        return np.array(
            [self.cost(int(s), int(e)) for s, e in zip(starts, ends)], dtype=float
        )

    def to_compiled_arrays(self) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Flat prefix-array state for the compiled DP kernels, or ``None``.

        Oracles whose bucket cost has the *quadratic prefix form*

            cost(s, e) = clip(X - Y^2 / Z, 0)   with
            X = A[e+1] - A[s],  Y = B[e+1] - B[s],  Z = C[e+1] - C[s]

        (and cost 0 wherever ``Z <= 0``) return the three length-``n+1``
        float64 prefix arrays ``(A, B, C)``.  This is the contract the
        compiled kernels (:mod:`repro._compiled`) run on: flat numpy state,
        no Python callbacks in the hot loop, and arithmetic that reproduces
        :meth:`costs_for_spans` bit-for-bit (same operations in the same
        order on the same doubles).  SSE (fixed variant) and SSRE qualify;
        the pooled-median and maximum-error oracles, and the paper-variant
        SSE with its cross-item corrections, return ``None`` and keep using
        the batch-oracle kernels.  (The pooled-median SAE/SARE oracle still
        runs compiled code: its :meth:`costs_for_spans` calls the backend's
        ``absolute_span_costs``, which the numpy DP kernels then consume.)
        """
        return None

    def costs_for_starts(self, starts: np.ndarray, end: int) -> np.ndarray:
        """Optimal costs of all buckets ``[start, end]`` for the given starts.

        Convenience wrapper over :meth:`costs_for_spans` for the common
        "all spans share one end" shape of the exact DP's inner loop.
        """
        starts = np.asarray(starts, dtype=np.int64)
        return self.costs_for_spans(starts, np.full(starts.shape, end, dtype=np.int64))

    def total_cost(self, boundaries) -> float:
        """Objective value of an explicit bucketing (list of ``(start, end)`` spans)."""
        spans = np.asarray(list(boundaries), dtype=np.int64)
        if spans.size == 0:
            raise SynopsisError("cannot score an empty bucketing")
        starts, ends = spans[:, 0], spans[:, 1]
        self._check_spans(starts, ends)
        costs = self.costs_for_spans(starts, ends)
        return float(costs.sum()) if self.aggregation == "sum" else float(costs.max())

    def _check_spans(self, starts: np.ndarray, ends: np.ndarray) -> None:
        """Vectorised :meth:`_check_span` over a batch of spans.

        Also rejects ``starts``/``ends`` that are not equal-length 1-D
        arrays, so a batch evaluator may index both by the same position.
        """
        if starts.ndim != 1 or starts.shape != ends.shape:
            raise SynopsisError(
                f"span starts {starts.shape} and ends {ends.shape} must be "
                "equal-length one-dimensional arrays"
            )
        invalid = (starts < 0) | (ends >= self.domain_size) | (starts > ends)
        if np.any(invalid):
            bad = int(np.argmax(invalid))
            self._check_span(int(starts[bad]), int(ends[bad]))

    def _check_span(self, start: int, end: int) -> None:
        if not (0 <= start <= end < self.domain_size):
            raise SynopsisError(
                f"invalid bucket span [{start}, {end}] for domain of size {self.domain_size}"
            )
