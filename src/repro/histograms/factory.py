"""Factory mapping an error metric to its bucket-cost oracle.

Keeping the mapping in one place means the histogram builder behind
:func:`repro.core.builders.build`, the baselines and the experiment harness
all agree on which oracle implements which metric (and on how the SSE variant
and sanity constant are threaded through).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..core.metrics import ErrorMetric, MetricSpec
from ..core.workload import QueryWorkload
from ..exceptions import SynopsisError
from ..models.base import ProbabilisticModel
from ..models.frequency import FrequencyDistributions
from ..models.tuple_pdf import TuplePdfModel
from .cost_base import BucketCostFunction
from .max_error import MaxAbsoluteCost, MaxAbsoluteRelativeCost
from .sae import SaeCost
from .sare import SareCost
from .sse import SseCost
from .ssre import SsreCost

__all__ = ["make_cost_function"]


def make_cost_function(
    data: Union[ProbabilisticModel, FrequencyDistributions],
    metric: Union[str, ErrorMetric, MetricSpec],
    *,
    sanity: float = 1.0,
    sse_variant: str = "fixed",
    workload: Union[QueryWorkload, Sequence[float], np.ndarray, None] = None,
) -> BucketCostFunction:
    """Build the bucket-cost oracle for ``metric`` over ``data``.

    Parameters
    ----------
    data:
        Either a probabilistic model (basic / tuple-pdf / value-pdf) or
        pre-computed per-item :class:`FrequencyDistributions`.
    metric:
        The error objective; a :class:`MetricSpec` may carry its own sanity
        constant, otherwise ``sanity`` is used for the relative metrics.
    sse_variant:
        ``"fixed"`` (Section 2.3 objective, default) or ``"paper"``
        (Eq. 5 of the paper); only meaningful for ``ErrorMetric.SSE``.
    workload:
        Optional per-item query weights (a :class:`QueryWorkload` or plain
        weight sequence).  ``None`` gives the paper's uniform-workload
        objectives; with weights the oracle optimises the workload-weighted
        objective (see :mod:`repro.core.workload`).
    """
    spec = metric if isinstance(metric, MetricSpec) else MetricSpec.of(metric, sanity)

    if isinstance(data, FrequencyDistributions):
        distributions = data
        model: Optional[ProbabilisticModel] = None
    elif isinstance(data, ProbabilisticModel):
        distributions = data.to_frequency_distributions()
        model = data
    else:
        raise SynopsisError(
            f"expected a probabilistic model or FrequencyDistributions, got {type(data).__name__}"
        )
    coerced = QueryWorkload.coerce(workload, distributions.domain_size)
    weights = None if coerced is None else coerced.weights

    metric_enum = spec.metric
    if metric_enum is ErrorMetric.SSE:
        tuple_model = model if (sse_variant == "paper" and isinstance(model, TuplePdfModel)) else None
        return SseCost(distributions, variant=sse_variant, model=tuple_model, workload=weights)
    if metric_enum is ErrorMetric.SSRE:
        return SsreCost(distributions, sanity=spec.sanity, workload=weights)
    if metric_enum is ErrorMetric.SAE:
        return SaeCost(distributions, workload=weights)
    if metric_enum is ErrorMetric.SARE:
        return SareCost(distributions, sanity=spec.sanity, workload=weights)
    if metric_enum is ErrorMetric.MAE:
        return MaxAbsoluteCost(distributions, workload=weights)
    if metric_enum is ErrorMetric.MARE:
        return MaxAbsoluteRelativeCost(distributions, sanity=spec.sanity, workload=weights)
    raise SynopsisError(f"no histogram cost oracle for metric {metric_enum!r}")  # pragma: no cover
