"""Shared machinery for the weighted absolute-error bucket costs (Sections 3.3-3.4).

Both the sum-absolute-error (SAE) and the sum-absolute-relative-error (SARE)
bucket costs have the form

    cost(b, b̂) = sum_{i in b} sum_{v_j in V} w_{i,j} * |v_j - b̂|,

where the non-negative weights are ``w_{i,j} = Pr[g_i = v_j]`` for SAE and
``w_{i,j} = Pr[g_i = v_j] / max(c, v_j)`` for SARE.  The paper shows (via the
monotonicity of the prefix weights ``P`` and suffix weights ``P*``) that the
cost is unimodal in ``b̂`` and minimised at a value of the grid ``V`` — i.e.
at a *weighted median* of the bucket's pooled weight distribution over ``V``.

Because the cost decomposes over items, correlations between items do not
matter and the tuple-pdf model reduces to its induced value pdf
(Section 3.3, "there are no interactions between different ``g_i`` values").

:class:`WeightedAbsoluteCost` implements the oracle once, parameterised by
the weight function; :class:`~repro.histograms.sae.SaeCost` and
:class:`~repro.histograms.sare.SareCost` instantiate it.  The precomputation
builds two-dimensional prefix arrays over (item, value) of the weights and
the value-weighted weights.  A single bucket's optimal representative and
cost (:meth:`WeightedAbsoluteCost.cost_and_representative`) then take
``O(log |V|)`` work, a binary search over the pooled value cdf, matching the
paper's ``O(n(|V| + Bn + n log |V|))`` bounds.

The batch path the DP kernels call, :meth:`WeightedAbsoluteCost.costs_for_spans`,
instead finds each span's median as the *first* grid column whose pooled
profile reaches half the weight: ``O(|V|)`` per span.  It runs in the
compiled ``absolute_span_costs`` kernel (:mod:`repro._compiled`) as a scan
that stops at the median, and in numpy over all ``|V|`` columns when no
backend resolves; both return bit-identical costs.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from .._compiled import get_backend
from ..models.frequency import FrequencyDistributions
from .cost_base import BucketCostFunction

__all__ = ["WeightedAbsoluteCost"]


class WeightedAbsoluteCost(BucketCostFunction):
    """Bucket-cost oracle for ``sum_i sum_j w_{i,j} |v_j - b̂|`` objectives."""

    aggregation = "sum"

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
        n, k = probs.shape

        # w_{i,j} = phi_i * Pr[g_i = v_j] * value_weight(v_j), where the
        # per-item workload weights phi default to one (uniform workload).
        weights = probs * value_weight(values)[None, :]
        if item_weights is not None:
            item_weights = np.asarray(item_weights, dtype=float)
            if item_weights.shape != (n,):
                raise ValueError("the workload must provide one weight per domain item")
            weights = weights * item_weights[:, None]
        weighted_values = weights * values[None, :]

        # Cumulative over values (axis 1), then prefixed over items (axis 0):
        # below_weight[i, j]        = sum_{i' < i} sum_{j' <= j} w_{i', j'}
        # below_weighted_value[i,j] = sum_{i' < i} sum_{j' <= j} w_{i', j'} v_{j'}
        value_cum_w = np.cumsum(weights, axis=1)
        value_cum_wv = np.cumsum(weighted_values, axis=1)
        self._below_weight = np.vstack([np.zeros((1, k)), np.cumsum(value_cum_w, axis=0)])
        self._below_weighted_value = np.vstack(
            [np.zeros((1, k)), np.cumsum(value_cum_wv, axis=0)]
        )
        # Per-item totals, prefixed over items.
        self._prefix_total_weight = np.concatenate([[0.0], np.cumsum(weights.sum(axis=1))])
        self._prefix_total_weighted_value = np.concatenate(
            [[0.0], np.cumsum(weighted_values.sum(axis=1))]
        )
        # Contiguous float64, like the prefix arrays, so the compiled span
        # costs can read every buffer by pointer.
        self._values = np.ascontiguousarray(values, dtype=np.float64)
        self._n = n
        self._k = k
        # Each batched span evaluation materialises one row of k value
        # columns; the kernels use this to size their batches.
        self.batch_cost_columns = max(int(k), 1)

        # The pooled-median cost has monotone DP split points (the concave
        # quadrangle inequality) when the items' weight distributions over
        # the value grid form a first-order stochastic dominance chain —
        # i.e. the normalised cumulative weight profiles of consecutive
        # (positive-mass) items are ordered the same way everywhere.  For
        # deterministic data this reduces to "the frequencies are sorted".
        totals = weights.sum(axis=1)
        active = value_cum_w[totals > 0.0] / totals[totals > 0.0, None]
        steps = np.diff(active, axis=0)
        self.supports_monotone_splits = bool(
            np.all(steps >= -1e-12) or np.all(steps <= 1e-12)
        )

    # ------------------------------------------------------------------
    @property
    def domain_size(self) -> int:
        return self._n

    @property
    def distributions(self) -> FrequencyDistributions:
        """The per-item marginals the oracle was built from."""
        return self._distributions

    # ------------------------------------------------------------------
    # Single-bucket evaluation
    # ------------------------------------------------------------------
    def _bucket_profiles(self, start: int, end: int):
        """Pooled cumulative weight / weighted-value profiles of one bucket."""
        below_w = self._below_weight[end + 1] - self._below_weight[start]
        below_wv = self._below_weighted_value[end + 1] - self._below_weighted_value[start]
        total_w = self._prefix_total_weight[end + 1] - self._prefix_total_weight[start]
        total_wv = (
            self._prefix_total_weighted_value[end + 1] - self._prefix_total_weighted_value[start]
        )
        return below_w, below_wv, total_w, total_wv

    @staticmethod
    def _cost_at_index(values, below_w, below_wv, total_w, total_wv, index):
        """Cost of using grid value ``values[index]`` as the representative."""
        b_hat = values[index]
        below_weight = below_w[index]
        below_weighted = below_wv[index]
        return (
            b_hat * below_weight
            - below_weighted
            + (total_wv - below_weighted)
            - b_hat * (total_w - below_weight)
        )

    def cost_and_representative(self, start: int, end: int) -> Tuple[float, float]:
        self._check_span(start, end)
        below_w, below_wv, total_w, total_wv = self._bucket_profiles(start, end)
        if total_w <= 0.0:
            # Degenerate bucket with zero total weight: any representative works.
            return 0.0, float(self._values[0])
        # Weighted median: first grid index where the cumulative weight reaches
        # half of the total.  The cost is unimodal in the representative, so
        # checking the crossing index and its left neighbour suffices.
        median = int(np.searchsorted(below_w, total_w / 2.0, side="left"))
        median = min(median, self._k - 1)
        candidates = {median, max(median - 1, 0), min(median + 1, self._k - 1)}
        best_cost = np.inf
        best_value = float(self._values[median])
        for idx in sorted(candidates):
            cost = self._cost_at_index(self._values, below_w, below_wv, total_w, total_wv, idx)
            if cost < best_cost - 1e-15:
                best_cost = cost
                best_value = float(self._values[idx])
        return max(float(best_cost), 0.0), best_value

    # ------------------------------------------------------------------
    # Vectorised evaluation for the DP kernels
    # ------------------------------------------------------------------
    def costs_for_spans(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        self._check_spans(starts, ends)
        backend = get_backend()
        if backend is None:
            return self._numpy_span_costs(starts, ends)
        out = np.empty(starts.shape, dtype=np.float64)
        backend.absolute_span_costs(
            self._below_weight,
            self._below_weighted_value,
            self._prefix_total_weight,
            self._prefix_total_weighted_value,
            self._values,
            np.ascontiguousarray(starts),
            np.ascontiguousarray(ends),
            out,
        )
        return out

    def _numpy_span_costs(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """The numpy batch path: the no-backend fallback and the test reference."""
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        below_w = self._below_weight[ends + 1] - self._below_weight[starts]
        below_wv = self._below_weighted_value[ends + 1] - self._below_weighted_value[starts]
        total_w = self._prefix_total_weight[ends + 1] - self._prefix_total_weight[starts]
        total_wv = (
            self._prefix_total_weighted_value[ends + 1]
            - self._prefix_total_weighted_value[starts]
        )
        # Weighted-median index per start (first column reaching half the total).
        half = total_w[:, None] / 2.0
        reached = below_w >= half
        median = np.where(reached.any(axis=1), np.argmax(reached, axis=1), self._k - 1)

        def cost_at(indices: np.ndarray) -> np.ndarray:
            rows = np.arange(starts.size)
            b_hat = self._values[indices]
            bw = below_w[rows, indices]
            bwv = below_wv[rows, indices]
            return b_hat * bw - bwv + (total_wv - bwv) - b_hat * (total_w - bw)

        costs = cost_at(median)
        left = np.maximum(median - 1, 0)
        right = np.minimum(median + 1, self._k - 1)
        costs = np.minimum(costs, cost_at(left))
        costs = np.minimum(costs, cost_at(right))
        return np.maximum(costs, 0.0)
