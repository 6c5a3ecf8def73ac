"""Sum-squared-relative-error bucket costs (Section 3.2).

For a bucket ``b`` with representative ``b̂`` the expected SSRE contribution
is

    E_W[ sum_{i in b} (g_i - b̂)^2 / max(c^2, g_i^2) ]
      = sum_{i in b} sum_{v in V} Pr[g_i = v] * (v - b̂)^2 * w(v),

with ``w(v) = 1 / max(c^2, v^2)`` and sanity constant ``c``.  The expression
is a quadratic in ``b̂``; the optimal representative and cost follow from the
three weighted sums

    X = sum Pr * v^2 * w,   Y = sum Pr * v * w,   Z = sum Pr * w,

as ``b̂* = Y / Z`` and ``cost = X - Y^2 / Z``.  Because the cost decomposes
over items (no cross-item terms), the tuple-pdf model reduces to the induced
value pdf, and prefix sums of X/Y/Z over the domain give ``O(1)`` bucket
evaluations — the paper's ``X[e]/Y[e]/Z[e]`` arrays.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.metrics import DEFAULT_SANITY
from ..exceptions import SynopsisError
from ..models.frequency import FrequencyDistributions
from .cost_base import BucketCostFunction

__all__ = ["SsreCost"]


class SsreCost(BucketCostFunction):
    """Bucket-cost oracle for the expected sum-squared-relative-error objective."""

    aggregation = "sum"

    def __init__(
        self,
        distributions: FrequencyDistributions,
        *,
        sanity: float = DEFAULT_SANITY,
        workload: np.ndarray | None = None,
    ) -> None:
        if sanity <= 0:
            raise SynopsisError("the sanity constant c must be positive")
        self._distributions = distributions
        self._sanity = float(sanity)
        values = distributions.values
        probs = distributions.probabilities
        n = distributions.domain_size

        weights = 1.0 / np.maximum(self._sanity ** 2, values ** 2)
        per_item_x = probs @ (values ** 2 * weights)
        per_item_y = probs @ (values * weights)
        per_item_z = probs @ weights
        if workload is not None:
            item_weights = np.asarray(workload, dtype=float)
            if item_weights.shape != (n,):
                raise SynopsisError("the workload must provide one weight per domain item")
            per_item_x = per_item_x * item_weights
            per_item_y = per_item_y * item_weights
            per_item_z = per_item_z * item_weights

        self._prefix_x = np.concatenate([[0.0], np.cumsum(per_item_x)])
        self._prefix_y = np.concatenate([[0.0], np.cumsum(per_item_y)])
        self._prefix_z = np.concatenate([[0.0], np.cumsum(per_item_z)])
        self._n = n

        # The cost is a per-item constant plus the Z-weighted variance of the
        # per-item optima Y/Z; monotone DP split points (the concave
        # quadrangle inequality) are guaranteed when those optima form a
        # monotone sequence.
        active = per_item_z > 0.0
        steps = np.diff(per_item_y[active] / per_item_z[active])
        self.supports_monotone_splits = bool(np.all(steps >= 0.0) or np.all(steps <= 0.0))

    # ------------------------------------------------------------------
    @property
    def domain_size(self) -> int:
        return self._n

    @property
    def sanity(self) -> float:
        """The sanity constant ``c`` of the relative error."""
        return self._sanity

    def cost_and_representative(self, start: int, end: int) -> Tuple[float, float]:
        self._check_span(start, end)
        x = self._prefix_x[end + 1] - self._prefix_x[start]
        y = self._prefix_y[end + 1] - self._prefix_y[start]
        z = self._prefix_z[end + 1] - self._prefix_z[start]
        if z <= 0.0:
            # Only possible with a workload assigning zero weight to the whole
            # bucket: any representative is free.
            return 0.0, 0.0
        representative = y / z
        cost = x - (y * y) / z
        return max(cost, 0.0), float(representative)

    def to_compiled_arrays(self):
        """Quadratic-prefix state for the compiled kernels: the X/Y/Z arrays."""
        return self._prefix_x, self._prefix_y, self._prefix_z

    def costs_for_spans(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        self._check_spans(starts, ends)
        x = self._prefix_x[ends + 1] - self._prefix_x[starts]
        y = self._prefix_y[ends + 1] - self._prefix_y[starts]
        z = self._prefix_z[ends + 1] - self._prefix_z[starts]
        safe_z = np.where(z > 0.0, z, 1.0)
        costs = np.where(z > 0.0, x - (y * y) / safe_z, 0.0)
        return np.maximum(costs, 0.0)

    # ------------------------------------------------------------------
    @classmethod
    def from_model(
        cls, model, *, sanity: float = DEFAULT_SANITY, workload: np.ndarray | None = None
    ) -> "SsreCost":
        """Build the oracle from any probabilistic model via its induced marginals."""
        return cls(model.to_frequency_distributions(), sanity=sanity, workload=workload)
