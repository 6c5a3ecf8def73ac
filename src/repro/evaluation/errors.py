"""Expected-error evaluation of synopses over probabilistic data (Section 2.3).

Given any synopsis — a histogram, a wavelet synopsis, or simply a vector of
frequency estimates ``ĝ`` — and any of the paper's error metrics, the
expected error over possible worlds is

* ``E_W[sum_i err(g_i, ĝ_i)] = sum_i E[err(g_i, ĝ_i)]`` for cumulative
  metrics (by linearity of expectation), and
* ``max_i E[err(g_i, ĝ_i)]`` for maximum metrics.

Because the estimates are fixed numbers, only the per-item marginal
frequency pdfs matter; correlations between items never enter.  That makes
the evaluation a couple of dense NumPy operations over the
``(items x values)`` probability matrix, and it is exact (no sampling).
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from ..core.metrics import DEFAULT_SANITY, ErrorMetric, MetricSpec
from ..core.synopsis import Synopsis
from ..exceptions import EvaluationError
from ..models.base import ProbabilisticModel
from ..models.frequency import FrequencyDistributions

__all__ = [
    "estimates_of",
    "per_item_expected_errors",
    "expected_error",
    "normalised_error_percentage",
]

SynopsisLike = Union[Synopsis, np.ndarray, Sequence[float]]
DataLike = Union[ProbabilisticModel, FrequencyDistributions]


def _distributions_of(data: DataLike) -> FrequencyDistributions:
    if isinstance(data, ProbabilisticModel):
        return data.to_frequency_distributions()
    if isinstance(data, FrequencyDistributions):
        return data
    raise EvaluationError(
        f"expected a probabilistic model or FrequencyDistributions, got {type(data).__name__}"
    )


def estimates_of(synopsis: SynopsisLike, domain_size: int) -> np.ndarray:
    """Frequency estimates ``ĝ`` of a synopsis, as a length-``domain_size`` vector."""
    # Protocol dispatch: any Synopsis supplies its own estimates;
    # anything else is treated as a raw estimate vector.
    if isinstance(synopsis, Synopsis):
        estimates = synopsis.estimates()
    else:
        estimates = np.asarray(synopsis, dtype=float)
    if estimates.ndim != 1:
        raise EvaluationError("frequency estimates must form a 1-D vector")
    if estimates.size != domain_size:
        raise EvaluationError(
            f"synopsis covers {estimates.size} items but the data domain has {domain_size}"
        )
    return estimates


def per_item_expected_errors(
    data: DataLike,
    synopsis: SynopsisLike,
    metric: Union[str, ErrorMetric, MetricSpec],
    *,
    sanity: float = DEFAULT_SANITY,
    workload=None,
) -> np.ndarray:
    """``E[err(g_i, ĝ_i)]`` for every item ``i``, as a length-``n`` vector.

    With a ``workload`` (per-item query weights), the errors are scaled by the
    weights, i.e. the vector holds ``phi_i * E[err(g_i, ĝ_i)]``.
    """
    from ..core.workload import QueryWorkload

    spec = metric if isinstance(metric, MetricSpec) else MetricSpec.of(metric, sanity)
    distributions = _distributions_of(data)
    estimates = estimates_of(synopsis, distributions.domain_size)

    values = distributions.values
    probs = distributions.probabilities
    diffs = values[None, :] - estimates[:, None]
    errors = diffs ** 2 if spec.squared else np.abs(diffs)
    if spec.relative:
        denom = np.maximum(spec.sanity, np.abs(values))[None, :]
        errors = errors / (denom ** 2 if spec.squared else denom)
    per_item = np.einsum("ij,ij->i", probs, errors)
    coerced = QueryWorkload.coerce(workload, distributions.domain_size)
    if coerced is not None:
        per_item = per_item * coerced.weights
    return per_item


def expected_error(
    data: DataLike,
    synopsis: SynopsisLike,
    metric: Union[str, ErrorMetric, MetricSpec],
    *,
    sanity: float = DEFAULT_SANITY,
    workload=None,
) -> float:
    """Expected error of a synopsis under the chosen metric (Section 2.3 objective).

    With a ``workload``, the objective is the workload-weighted variant:
    ``sum_i phi_i E[err]`` for cumulative metrics, ``max_i phi_i E[err]`` for
    maximum metrics.
    """
    spec = metric if isinstance(metric, MetricSpec) else MetricSpec.of(metric, sanity)
    per_item = per_item_expected_errors(data, synopsis, spec, workload=workload)
    return float(per_item.sum()) if spec.cumulative else float(per_item.max())


def normalised_error_percentage(error: float, minimum: float, maximum: float) -> float:
    """Error as a percentage of the achievable range (Section 5.1's "error %").

    A histogram over probabilistic data has non-zero error even with ``n``
    buckets; the paper therefore reports the position of a synopsis' cost
    between the smallest achievable error (``n`` buckets) and the largest
    (one bucket).  Degenerate ranges report 0%.
    """
    span = maximum - minimum
    if span <= 0:
        return 0.0
    return float(100.0 * (error - minimum) / span)
