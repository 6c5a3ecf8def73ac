"""Maximum-error bucket costs: MAE and MARE (Section 3.6).

For the maximum objectives the bucket cost is the largest *per-item expected*
error inside the bucket,

    cost(b, b̂) = max_{i in b} f_i(b̂),
    f_i(b̂)     = sum_{v_j in V} w_{i,j} |v_j - b̂|,

with weights ``w_{i,j} = Pr[g_i = v_j]`` (MAE) or
``Pr[g_i = v_j] / max(c, v_j)`` (MARE).  Each ``f_i`` is a convex
piecewise-linear function of ``b̂`` (an instance of the SARE-style weighted
absolute error per item), so their upper envelope is convex too and its
minimum can be bracketed by a ternary search, exactly as the paper argues.
The optimum need *not* lie on the value grid — between two grid values the
envelope is the maximum of straight lines — so after locating the bracketing
interval the search continues on the real line to numerical precision.

As with SAE/SARE, the cost decomposes per item, so the tuple-pdf model is
handled through its induced value pdf.  The histogram DP combines bucket
costs with ``max`` rather than ``+`` for these objectives.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from ..core.metrics import DEFAULT_SANITY
from ..exceptions import SynopsisError
from ..models.frequency import FrequencyDistributions
from .cost_base import BucketCostFunction

__all__ = ["MaxAbsoluteCost", "MaxAbsoluteRelativeCost"]

#: Number of ternary-search refinements on the real line.  The envelope is
#: piecewise linear, so ~80 halvings reach machine precision on any realistic
#: value range.
_TERNARY_ITERATIONS = 80


#: Batched span evaluations are chunked so one chunk touches at most this many
#: (item, probe) entries; bounds the working set of :meth:`costs_for_spans`.
_BATCH_ITEM_BUDGET = 1 << 20


class _MaxEnvelopeCost(BucketCostFunction):
    """Shared implementation of the MAE / MARE bucket-cost oracles."""

    aggregation = "max"
    #: Maximum-error aggregation has no additive DP structure, so the
    #: monotone-split divide-and-conquer kernel never applies.
    supports_monotone_splits = False

    def __init__(
        self,
        distributions: FrequencyDistributions,
        value_weight: Callable[[np.ndarray], np.ndarray],
        *,
        item_weights: np.ndarray | None = None,
    ) -> None:
        self._distributions = distributions
        values = distributions.values
        probs = distributions.probabilities

        weights = probs * value_weight(values)[None, :]
        if item_weights is not None:
            item_weights = np.asarray(item_weights, dtype=float)
            if item_weights.shape != (distributions.domain_size,):
                raise SynopsisError("the workload must provide one weight per domain item")
            weights = weights * item_weights[:, None]
        weighted_values = weights * values[None, :]

        # Per-item cumulative profiles over the value grid.
        self._item_cum_weight = np.cumsum(weights, axis=1)
        self._item_cum_weighted_value = np.cumsum(weighted_values, axis=1)
        self._item_total_weight = weights.sum(axis=1)
        self._item_total_weighted_value = weighted_values.sum(axis=1)
        self._values = values
        self._n = distributions.domain_size
        self._k = values.size

    # ------------------------------------------------------------------
    @property
    def domain_size(self) -> int:
        return self._n

    def _envelope(self, start: int, end: int, b_hat: float) -> float:
        """``max_{i in [start, end]} f_i(b_hat)`` evaluated in O(n_b) vector ops."""
        # Number of grid values <= b_hat; -1 means "below the whole grid".
        idx = int(np.searchsorted(self._values, b_hat, side="right")) - 1
        rows = slice(start, end + 1)
        total_w = self._item_total_weight[rows]
        total_wv = self._item_total_weighted_value[rows]
        if idx < 0:
            below_w = np.zeros(end - start + 1)
            below_wv = np.zeros(end - start + 1)
        else:
            below_w = self._item_cum_weight[rows, idx]
            below_wv = self._item_cum_weighted_value[rows, idx]
        per_item = (
            b_hat * below_w - below_wv + (total_wv - below_wv) - b_hat * (total_w - below_w)
        )
        return float(per_item.max()) if per_item.size else 0.0

    def cost_and_representative(self, start: int, end: int) -> Tuple[float, float]:
        self._check_span(start, end)
        lo = float(self._values[0])
        hi = float(self._values[-1])
        if hi <= lo:
            return self._envelope(start, end, lo), lo
        # Ternary search on the convex upper envelope over the full value range.
        left, right = lo, hi
        for _ in range(_TERNARY_ITERATIONS):
            third = (right - left) / 3.0
            mid_left = left + third
            mid_right = right - third
            if self._envelope(start, end, mid_left) <= self._envelope(start, end, mid_right):
                right = mid_right
            else:
                left = mid_left
        best_b = 0.5 * (left + right)
        best_cost = self._envelope(start, end, best_b)
        # Also consider the grid values adjacent to the bracketing interval and
        # the range endpoints; cheap insurance against flat stretches.
        candidates = [lo, hi]
        idx = int(np.searchsorted(self._values, best_b))
        for j in (idx - 1, idx, idx + 1):
            if 0 <= j < self._k:
                candidates.append(float(self._values[j]))
        for candidate in candidates:
            cost = self._envelope(start, end, candidate)
            if cost < best_cost - 1e-15:
                best_cost = cost
                best_b = candidate
        return max(best_cost, 0.0), float(best_b)

    # ------------------------------------------------------------------
    # Batched evaluation for the DP kernels
    # ------------------------------------------------------------------
    def costs_for_spans(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Batched ternary search over all spans' (convex) upper envelopes.

        The envelope has no prefix-array shortcut, so each probe still costs
        one pass over every item of every span — but running all spans'
        searches in lock-step replaces ``O(spans)`` Python-level ternary
        searches with ``_TERNARY_ITERATIONS`` vectorised sweeps.  Spans are
        chunked so one sweep touches at most ``_BATCH_ITEM_BUDGET`` items.
        """
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        self._check_spans(starts, ends)
        out = np.empty(starts.shape, dtype=float)
        if starts.size == 0:
            return out
        widths = ends - starts + 1
        cut = 0
        while cut < starts.size:
            stop = cut + 1
            budget = int(widths[cut])
            while stop < starts.size and budget + int(widths[stop]) <= _BATCH_ITEM_BUDGET:
                budget += int(widths[stop])
                stop += 1
            out[cut:stop] = self._costs_for_span_chunk(starts[cut:stop], ends[cut:stop])
            cut = stop
        return out

    def _costs_for_span_chunk(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        widths = ends - starts + 1
        offsets = np.concatenate([[0], np.cumsum(widths)])
        span_of = np.repeat(np.arange(starts.size), widths)
        items = np.arange(offsets[-1]) - offsets[span_of] + starts[span_of]
        segment_starts = offsets[:-1]

        def envelope(b_hat: np.ndarray) -> np.ndarray:
            """``max_{i in span} f_i(b_hat[span])`` for every span at once."""
            idx = np.searchsorted(self._values, b_hat, side="right") - 1
            idx_items = idx[span_of]
            clipped = np.maximum(idx_items, 0)
            inside = idx_items >= 0
            below_w = np.where(inside, self._item_cum_weight[items, clipped], 0.0)
            below_wv = np.where(inside, self._item_cum_weighted_value[items, clipped], 0.0)
            total_w = self._item_total_weight[items]
            total_wv = self._item_total_weighted_value[items]
            b_items = b_hat[span_of]
            per_item = (
                b_items * below_w
                - below_wv
                + (total_wv - below_wv)
                - b_items * (total_w - below_w)
            )
            return np.maximum.reduceat(per_item, segment_starts)

        lo = float(self._values[0])
        hi = float(self._values[-1])
        if hi <= lo:
            return np.maximum(envelope(np.full(starts.size, lo)), 0.0)
        left = np.full(starts.size, lo)
        right = np.full(starts.size, hi)
        for _ in range(_TERNARY_ITERATIONS):
            third = (right - left) / 3.0
            mid_left = left + third
            mid_right = right - third
            go_left = envelope(mid_left) <= envelope(mid_right)
            right = np.where(go_left, mid_right, right)
            left = np.where(go_left, left, mid_left)
        best_b = 0.5 * (left + right)
        best_cost = envelope(best_b)
        # Same cheap insurance as the scalar search: probe the grid values
        # adjacent to the bracketing interval plus the range endpoints.
        anchor = np.searchsorted(self._values, best_b)
        for offset in (-1, 0, 1):
            grid = np.clip(anchor + offset, 0, self._k - 1)
            best_cost = np.minimum(best_cost, envelope(self._values[grid]))
        best_cost = np.minimum(best_cost, envelope(np.full(starts.size, lo)))
        best_cost = np.minimum(best_cost, envelope(np.full(starts.size, hi)))
        return np.maximum(best_cost, 0.0)


class MaxAbsoluteCost(_MaxEnvelopeCost):
    """Bucket-cost oracle for the maximum-absolute-error objective (MAE)."""

    def __init__(
        self, distributions: FrequencyDistributions, *, workload: np.ndarray | None = None
    ) -> None:
        super().__init__(
            distributions,
            value_weight=lambda values: np.ones_like(values),
            item_weights=workload,
        )

    @classmethod
    def from_model(cls, model, *, workload: np.ndarray | None = None) -> "MaxAbsoluteCost":
        """Build the oracle from any probabilistic model via its induced marginals."""
        return cls(model.to_frequency_distributions(), workload=workload)


class MaxAbsoluteRelativeCost(_MaxEnvelopeCost):
    """Bucket-cost oracle for the maximum-absolute-relative-error objective (MARE)."""

    def __init__(
        self,
        distributions: FrequencyDistributions,
        *,
        sanity: float = DEFAULT_SANITY,
        workload: np.ndarray | None = None,
    ) -> None:
        if sanity <= 0:
            raise SynopsisError("the sanity constant c must be positive")
        self._sanity = float(sanity)
        super().__init__(
            distributions,
            value_weight=lambda values: 1.0 / np.maximum(self._sanity, np.abs(values)),
            item_weights=workload,
        )

    @property
    def sanity(self) -> float:
        """The sanity constant ``c`` of the relative error."""
        return self._sanity

    @classmethod
    def from_model(
        cls, model, *, sanity: float = DEFAULT_SANITY, workload: np.ndarray | None = None
    ) -> "MaxAbsoluteRelativeCost":
        """Build the oracle from any probabilistic model via its induced marginals."""
        return cls(model.to_frequency_distributions(), sanity=sanity, workload=workload)
