"""Vectorised batch query engine over built synopses.

:class:`BatchQueryEngine` answers a whole :class:`~repro.service.queries.QueryBatch`
against one synopsis in a handful of dense NumPy operations:

* every query is reduced to a range sum over the estimated frequency vector
  (a point query is the width-1 range ``[i, i]``, an average divides the sum
  by the width), and
* the synopsis value objects supply vectorised range sums —
  ``O(Q log B)`` prefix-mass lookups for histograms,
  ``O(Q B)`` clipped support-interval arithmetic for wavelets — so the cost
  per query is independent of both the domain size and (for histograms) the
  bucket count.

When the engine is built :meth:`from_model` it also captures the per-item
expected errors ``E[err(g_i, ĝ_i)]`` of the synopsis under its construction
metric, digested into a prefix-sum array and a sparse-table range-maximum
index.  :meth:`attribute_errors` then assigns every query of a batch its
expected-error mass in ``O(1)`` per query: the error sum over the queried
range for cumulative metrics, the range maximum for maximum metrics.
"""

from __future__ import annotations

import time
from typing import Optional, Union

import numpy as np

from ..core.metrics import DEFAULT_SANITY, ErrorMetric, MetricSpec
from ..core.synopsis import Synopsis
from ..exceptions import EvaluationError
from ..telemetry import registry
from ..telemetry.metrics import STATE as _TELEMETRY
from .queries import POINT, QUERY_KINDS, QueryBatch

__all__ = ["BatchQueryEngine"]

_RANGE_AVG_CODE = QUERY_KINDS.index("range_avg")

# The answer stage's latency, registered once at import.  ``answer`` measures
# it only behind a single ``_TELEMETRY.enabled`` attribute check, so the
# serving fast path pays nothing measurable when telemetry is off (asserted
# ≤1% by tests/test_telemetry.py).  Batch and query counts are the daemon's.
_ENGINE_LATENCY = registry().histogram(
    "repro_engine_batch_latency_ms", "Wall time of one vectorised batch answer"
)


class _RangeMaxIndex:
    """Sparse-table range-maximum index: ``O(n log n)`` build, ``O(1)`` query.

    Level ``k`` of the table holds the maximum over every window of length
    ``2^k``; an arbitrary range is the maximum of its two covering windows.
    All queries of a batch are answered with two fancy-indexing reads.
    """

    __slots__ = ("_levels",)

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        levels = [values]
        width = 1
        while 2 * width <= values.size:
            previous = levels[-1]
            levels.append(np.maximum(previous[: previous.size - width], previous[width:]))
            width *= 2
        self._levels = levels

    def range_max(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Maximum over each inclusive range ``[starts[i], ends[i]]``."""
        if starts.size == 0:
            return np.zeros(0, dtype=float)
        widths = ends - starts + 1
        ks = np.frexp(widths.astype(float))[1] - 1  # floor(log2(width))
        result = np.empty(starts.size, dtype=float)
        for k in np.unique(ks):
            mask = ks == k
            level = self._levels[int(k)]
            left = level[starts[mask]]
            right = level[ends[mask] - (1 << int(k)) + 1]
            result[mask] = np.maximum(left, right)
        return result


class BatchQueryEngine:
    """Answers query batches against one synopsis, with error attribution.

    Parameters
    ----------
    synopsis:
        Any :class:`~repro.core.synopsis.Synopsis` implementation to serve
        (histogram, wavelet or partitioned).
    per_item_errors:
        Optional length-``n`` vector of per-item expected errors
        ``E[err(g_i, ĝ_i)]`` used by :meth:`attribute_errors`; typically
        supplied by :meth:`from_model`.
    metric:
        The metric the errors were computed under (determines whether ranges
        aggregate error by sum or by maximum).
    """

    __slots__ = ("_synopsis", "_spec", "_error_prefix", "_error_max", "_per_item_errors")

    def __init__(
        self,
        synopsis: Synopsis,
        *,
        per_item_errors: Optional[np.ndarray] = None,
        metric: Union[str, ErrorMetric, MetricSpec, None] = None,
    ):
        # Protocol check, not a kind check: anything implementing the
        # Synopsis contract is servable.
        if not isinstance(synopsis, Synopsis):
            raise EvaluationError(
                f"cannot serve synopsis of type {type(synopsis).__name__}; "
                "servable synopses implement repro.core.synopsis.Synopsis"
            )
        self._synopsis = synopsis
        self._spec = None if metric is None else MetricSpec.of(metric)
        self._error_prefix = None
        self._error_max = None
        self._per_item_errors = None
        if per_item_errors is not None:
            errors = np.asarray(per_item_errors, dtype=float)
            if errors.ndim != 1 or errors.size != synopsis.domain_size:
                raise EvaluationError(
                    "per_item_errors must be a length-n vector over the synopsis domain"
                )
            self._per_item_errors = errors
            self._error_prefix = np.concatenate([[0.0], np.cumsum(errors)])
            self._error_max = _RangeMaxIndex(errors)

    @classmethod
    def from_model(
        cls,
        synopsis: Synopsis,
        data,
        metric: Union[str, ErrorMetric, MetricSpec] = ErrorMetric.SSE,
        *,
        sanity: float = DEFAULT_SANITY,
        workload=None,
    ) -> "BatchQueryEngine":
        """Engine whose error attribution is computed from the source data.

        Evaluates ``E[err(g_i, ĝ_i)]`` once (the same exact evaluation the
        synopsis' cost oracle is built on) and digests it for ``O(1)``
        per-query attribution.
        """
        from ..evaluation.errors import per_item_expected_errors

        spec = metric if isinstance(metric, MetricSpec) else MetricSpec.of(metric, sanity)
        errors = per_item_expected_errors(data, synopsis, spec, workload=workload)
        return cls(synopsis, per_item_errors=errors, metric=spec)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def synopsis(self) -> Synopsis:
        """The synopsis being served."""
        return self._synopsis

    @property
    def metric(self) -> Optional[MetricSpec]:
        """The metric spec error attribution runs under (``None`` if unset)."""
        return self._spec

    def __repr__(self) -> str:
        metric = self._spec.describe() if self._spec is not None else "none"
        return f"BatchQueryEngine({self._synopsis!r}, metric={metric})"

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def _check_batch(self, batch: QueryBatch) -> None:
        if batch.max_item >= self._synopsis.domain_size:
            raise EvaluationError(
                f"batch touches item {batch.max_item} but the synopsis covers "
                f"[0, {self._synopsis.domain_size})"
            )

    def answer(self, batch: QueryBatch) -> np.ndarray:
        """Answers for every query of the batch, in batch order.

        One vectorised range-sum evaluation covers all three query kinds;
        averages are divided by their range widths afterwards.
        """
        started = time.perf_counter() if _TELEMETRY.enabled else None
        self._check_batch(batch)
        if len(batch) == 0:
            return np.zeros(0, dtype=float)
        answers = self._synopsis.range_sum_estimates(batch.starts, batch.ends)
        averages = batch.kinds == _RANGE_AVG_CODE
        if np.any(averages):
            answers = answers.astype(float, copy=True)
            answers[averages] /= batch.widths[averages]
        if started is not None:
            _ENGINE_LATENCY.observe((time.perf_counter() - started) * 1000.0)
        return answers

    def answer_serial(self, batch: QueryBatch) -> np.ndarray:
        """Reference per-query Python loop over the scalar estimation API.

        Semantically identical to :meth:`answer`; kept as the correctness
        oracle for the tests and the baseline the serving benchmark measures
        the vectorised path against.
        """
        self._check_batch(batch)
        answers = np.empty(len(batch), dtype=float)
        for position, (kind, start, end) in enumerate(batch.as_tuples()):
            if kind == POINT:
                answers[position] = self._synopsis.estimate(start)
            else:
                total = self._synopsis.range_sum_estimate(start, end)
                if kind == "range_avg":
                    total /= end - start + 1
                answers[position] = total
        return answers

    # ------------------------------------------------------------------
    # Expected-error attribution
    # ------------------------------------------------------------------
    def attribute_errors(self, batch: QueryBatch) -> np.ndarray:
        """Expected-error mass attributed to every query of the batch.

        Point queries receive their item's expected error.  Ranges aggregate
        the per-item expected errors the way the construction metric does:
        cumulative metrics sum them (for absolute metrics this bounds the
        expected range-answer error by the triangle inequality; range-avg
        queries divide by the width), maximum metrics take the range maximum.
        """
        if self._per_item_errors is None:
            raise EvaluationError(
                "error attribution needs per-item expected errors; build the "
                "engine with BatchQueryEngine.from_model(...)"
            )
        self._check_batch(batch)
        if len(batch) == 0:
            return np.zeros(0, dtype=float)
        if self._spec is not None and self._spec.maximum:
            attributed = self._error_max.range_max(batch.starts, batch.ends)
        else:
            attributed = self._error_prefix[batch.ends + 1] - self._error_prefix[batch.starts]
            averages = batch.kinds == _RANGE_AVG_CODE
            if np.any(averages):
                attributed[averages] /= batch.widths[averages]
        return attributed
