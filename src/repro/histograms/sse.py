"""Sum-squared-error bucket costs on probabilistic data (Section 3.1).

For a bucket ``b = [s, e]`` with a fixed representative ``b̂`` the expected
SSE contribution is ``E_W[sum_{i in b} (g_i - b̂)^2]``.  The representative
minimising it is the mean expected frequency of the bucket,
``b̄ = (1/n_b) * sum_i E[g_i]``, and two closely related cost expressions
appear in the paper:

``variant="fixed"`` (default)
    The Section 2.3 objective with the fixed representative ``b̄``:

        cost = sum_i E[g_i^2]  -  (sum_i E[g_i])^2 / n_b

    This depends only on the per-item marginals, so it is identical for the
    value-pdf and tuple-pdf models and is computed from two prefix arrays.

``variant="paper"``
    Equation (5) of the paper,

        cost = sum_i E[g_i^2]  -  E[(sum_i g_i)^2] / n_b,

    i.e. the expected *per-world within-bucket variance* (the error if every
    world could use its own bucket mean).  It differs from the fixed variant
    by ``Var[sum_{i in b} g_i] / n_b`` and therefore depends on the
    correlations between items: for the value-pdf model the variance of the
    bucket total is the sum of per-item variances, while for the tuple-pdf
    model it is ``sum_j q_j (1 - q_j)`` with ``q_j = Pr[s <= t_j <= e]``
    (the paper's ``A``/``B``/``C`` prefix arrays).  Our implementation adds
    the exact correction for tuples whose support straddles the bucket's left
    boundary, so it is exact for arbitrary tuple pdfs (see DESIGN.md).

Both variants admit ``O(1)`` bucket evaluations after an ``O(m + n)``
precomputation, giving the paper's ``O(m + B n^2)`` histogram construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import SynopsisError
from ..models.frequency import FrequencyDistributions
from ..models.tuple_pdf import TuplePdfModel
from .cost_base import BucketCostFunction

__all__ = ["SseCost"]

_VARIANTS = ("fixed", "paper")


class SseCost(BucketCostFunction):
    """Bucket-cost oracle for the (expected) sum-squared-error objective."""

    aggregation = "sum"

    def __init__(
        self,
        distributions: FrequencyDistributions,
        *,
        variant: str = "fixed",
        model: Optional[TuplePdfModel] = None,
        workload: Optional[np.ndarray] = None,
    ) -> None:
        if variant not in _VARIANTS:
            raise SynopsisError(f"unknown SSE variant {variant!r}; expected one of {_VARIANTS}")
        if workload is not None and variant != "fixed":
            raise SynopsisError(
                "workload-weighted SSE is only defined for the fixed-representative variant"
            )
        self._distributions = distributions
        self._variant = variant
        self._model = model
        n = distributions.domain_size

        expectations = distributions.expectations()
        second_moments = distributions.second_moments()
        variances = distributions.variances()
        if workload is None:
            weights = np.ones(n)
        else:
            weights = np.asarray(workload, dtype=float)
            if weights.shape != (n,):
                raise SynopsisError("the workload must provide one weight per domain item")

        # Prefix arrays indexed so that prefix[k] = sum over items < k.  The
        # workload weights multiply the per-item moments; with unit weights the
        # formulas below reduce exactly to the paper's unweighted ones (the
        # weight prefix then just counts the bucket width n_b).
        self._prefix_expectation = np.concatenate([[0.0], np.cumsum(weights * expectations)])
        self._prefix_second_moment = np.concatenate(
            [[0.0], np.cumsum(weights * second_moments)]
        )
        self._prefix_weight = np.concatenate([[0.0], np.cumsum(weights)])
        self._prefix_variance = np.concatenate([[0.0], np.cumsum(variances)])
        self._prefix_plain_expectation = np.concatenate([[0.0], np.cumsum(expectations)])
        self._n = n

        # The fixed-representative cost is a per-item constant plus the
        # weighted variance of the expectations; the concave quadrangle
        # inequality (monotone DP split points) holds exactly when the
        # expectations of the weighted items form a monotone sequence.  The
        # paper variant's bucket-total variance term (and its tuple straddle
        # corrections) carries no such guarantee.
        steps = np.diff(expectations[weights > 0])
        self.supports_monotone_splits = bool(
            variant == "fixed" and (np.all(steps >= 0.0) or np.all(steps <= 0.0))
        )

        if variant == "paper" and model is not None:
            self._prepare_tuple_arrays(model)
        else:
            self._prefix_sq_cdf = None
            self._straddler_tuples: List[Tuple[object, np.ndarray, np.ndarray]] = []
            self._correction_cache: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Tuple-pdf specific precomputation (paper's A/B/C arrays + correction)
    # ------------------------------------------------------------------
    def _prepare_tuple_arrays(self, model: TuplePdfModel) -> None:
        """Precompute ``C[e] = sum_j Pr[t_j <= e]^2`` and the straddler structures."""
        n = self._n
        if model.domain_size != n:
            raise SynopsisError(
                "the tuple-pdf model and the frequency distributions disagree on the domain size"
            )
        # C is piecewise constant in e, changing only at the items of each tuple;
        # accumulate the changes in a difference array and prefix-sum it.
        diff = np.zeros(n + 1)
        # For the exact straddle correction we keep, per multi-item tuple, the
        # bucket-start positions it straddles and the below-boundary cdf there.
        straddler_tuples: List[Tuple[object, np.ndarray, np.ndarray]] = []
        self._tuples = model.tuples
        for t in self._tuples:
            cumulative = np.cumsum(t.probabilities)
            previous_sq = 0.0
            for item, cum in zip(t.items.tolist(), cumulative.tolist()):
                diff[item] += cum * cum - previous_sq
                previous_sq = cum * cum
            if len(t) > 1:
                lo = int(t.items[0])
                hi = int(t.items[-1])
                # Tuple t straddles every bucket start s with lo < s <= hi;
                # record Pr[t <= s - 1] for each such s.
                starts = np.arange(lo + 1, hi + 1, dtype=np.int64)
                below = np.array([t.probability_in_range(0, int(s) - 1) for s in starts])
                straddler_tuples.append((t, starts, below))
        # prefix_sq_cdf[k] = C[k-1] = sum_j Pr[t_j <= k-1]^2   (prefix over items < k)
        self._prefix_sq_cdf = np.concatenate([[0.0], np.cumsum(diff[:n])])
        self._straddler_tuples = straddler_tuples
        # Correction vectors are cached per bucket end: the DP fixes the end
        # point in its inner loop and sweeps the start, and the vector does not
        # depend on the budget row, so each end is computed at most once.
        self._correction_cache: Dict[int, np.ndarray] = {}

    def _correction_vector(self, end: int) -> np.ndarray:
        """``D(s, end)`` for every bucket start ``s`` (zero where no tuple straddles)."""
        cached = self._correction_cache.get(end)
        if cached is not None:
            return cached
        corrections = np.zeros(self._n)
        for t, starts, below in self._straddler_tuples:
            at_end = t.probability_in_range(0, end)
            # D contribution: Pr[t <= s-1] * Pr[s <= t <= end], clipped at zero
            # for starts beyond the end point (those spans are never queried).
            inside = np.maximum(at_end - below, 0.0)
            corrections[starts] += below * inside
        self._correction_cache[end] = corrections
        return corrections

    def _straddle_correction(self, start: int, end: int) -> float:
        """``D(s, e) = sum_{j straddling s} Pr[t_j <= s-1] * Pr[s <= t_j <= e]``."""
        if start == 0 or not self._straddler_tuples:
            return 0.0
        return float(self._correction_vector(end)[start])

    # ------------------------------------------------------------------
    # Oracle interface
    # ------------------------------------------------------------------
    @property
    def domain_size(self) -> int:
        return self._n

    @property
    def variant(self) -> str:
        """Which SSE formulation the oracle computes (``"fixed"`` or ``"paper"``)."""
        return self._variant

    def cost_and_representative(self, start: int, end: int) -> Tuple[float, float]:
        self._check_span(start, end)
        width = end - start + 1
        sum_expectation = self._prefix_expectation[end + 1] - self._prefix_expectation[start]
        sum_second_moment = self._prefix_second_moment[end + 1] - self._prefix_second_moment[start]
        sum_weight = self._prefix_weight[end + 1] - self._prefix_weight[start]
        if sum_weight <= 0.0:
            # Zero-weight bucket: any representative is free; report the plain mean.
            plain = self._prefix_plain_expectation[end + 1] - self._prefix_plain_expectation[start]
            return 0.0, float(plain / width)
        representative = sum_expectation / sum_weight
        cost = sum_second_moment - (sum_expectation ** 2) / sum_weight
        if self._variant == "paper":
            cost -= self._bucket_total_variance(start, end) / width
        return max(cost, 0.0), float(representative)

    def to_compiled_arrays(self):
        """Quadratic-prefix state for the compiled kernels (fixed variant only).

        The fixed-representative cost is exactly
        ``sum w E[g^2] - (sum w E[g])^2 / sum w`` — the quadratic prefix form
        over the second-moment / expectation / weight prefix arrays.  The
        paper variant subtracts a width-scaled bucket-total variance on top,
        which the flat contract cannot express, so it stays on the
        batch-oracle kernels.
        """
        if self._variant != "fixed":
            return None
        return self._prefix_second_moment, self._prefix_expectation, self._prefix_weight

    def costs_for_spans(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        self._check_spans(starts, ends)
        widths = ends - starts + 1
        sum_expectation = self._prefix_expectation[ends + 1] - self._prefix_expectation[starts]
        sum_second_moment = (
            self._prefix_second_moment[ends + 1] - self._prefix_second_moment[starts]
        )
        sum_weight = self._prefix_weight[ends + 1] - self._prefix_weight[starts]
        safe_weight = np.where(sum_weight > 0.0, sum_weight, 1.0)
        costs = sum_second_moment - (sum_expectation ** 2) / safe_weight
        costs = np.where(sum_weight > 0.0, costs, 0.0)
        if self._variant == "paper":
            costs = costs - self._bucket_total_variances_for_spans(starts, ends) / widths
        return np.maximum(costs, 0.0)

    # ------------------------------------------------------------------
    # Variance of the bucket total (only used by the "paper" variant)
    # ------------------------------------------------------------------
    def _bucket_total_variance(self, start: int, end: int) -> float:
        if self._model is None:
            return float(self._prefix_variance[end + 1] - self._prefix_variance[start])
        sum_expectation = (
            self._prefix_plain_expectation[end + 1] - self._prefix_plain_expectation[start]
        )
        sum_sq_cdf = self._prefix_sq_cdf[end + 1] - self._prefix_sq_cdf[start]
        sum_sq_range = sum_sq_cdf - 2.0 * self._straddle_correction(start, end)
        return float(max(sum_expectation - sum_sq_range, 0.0))

    def _bucket_total_variances_for_spans(
        self, starts: np.ndarray, ends: np.ndarray
    ) -> np.ndarray:
        if self._model is None:
            return self._prefix_variance[ends + 1] - self._prefix_variance[starts]
        sum_expectation = (
            self._prefix_plain_expectation[ends + 1] - self._prefix_plain_expectation[starts]
        )
        sum_sq_cdf = self._prefix_sq_cdf[ends + 1] - self._prefix_sq_cdf[starts]
        if self._straddler_tuples:
            # The straddle-correction vector is cached per bucket end; batch
            # calls group the spans by their (typically few) distinct ends.
            corrections = np.empty(starts.shape, dtype=float)
            unique_ends, inverse = np.unique(ends, return_inverse=True)
            for k, end in enumerate(unique_ends):
                mask = inverse == k
                corrections[mask] = self._correction_vector(int(end))[starts[mask]]
        else:
            corrections = 0.0
        return np.maximum(sum_expectation - (sum_sq_cdf - 2.0 * corrections), 0.0)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, model, *, variant: str = "fixed", workload: Optional[np.ndarray] = None) -> "SseCost":
        """Build the oracle straight from any probabilistic model.

        For the ``"paper"`` variant and a tuple-style model the exact
        tuple-correlation term is used; otherwise only the induced per-item
        marginals are needed.  ``workload`` optionally supplies per-item query
        weights (fixed variant only).
        """
        distributions = model.to_frequency_distributions()
        tuple_model = model if (variant == "paper" and isinstance(model, TuplePdfModel)) else None
        return cls(distributions, variant=variant, model=tuple_model, workload=workload)
