"""Top-level synopsis builders: the package's main entry points.

:func:`build` is the typed front door: it takes the data and a declarative
:class:`~repro.core.spec.SynopsisSpec` and returns the described synopsis
(or, for a budget-sweep spec, one synopsis per budget — served by a single
DP run).  Construction is dispatched through a per-kind builder registry, so
a new synopsis kind plugs in with one :func:`register_builder` call.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Union

import numpy as np

from ..exceptions import SynopsisError
from ..models.base import ProbabilisticModel
from ..models.frequency import FrequencyDistributions
from ..telemetry import span
from .metrics import ErrorMetric
from .spec import SynopsisSpec
from .synopsis import Synopsis

__all__ = ["build", "register_builder"]

DataLike = Union[ProbabilisticModel, FrequencyDistributions, np.ndarray, Sequence[float]]
NormalisedData = Union[ProbabilisticModel, FrequencyDistributions]

#: A kind builder: (normalised data, spec) -> one synopsis per spec budget.
KindBuilder = Callable[[NormalisedData, SynopsisSpec], List[Synopsis]]

_BUILDERS: Dict[str, KindBuilder] = {}


def register_builder(kind: str):
    """Register the construction function for one synopsis kind.

    The function receives the normalised data and the (validated) spec and
    must return one synopsis per entry of ``spec.budgets``, in order.
    """

    def decorate(fn: KindBuilder) -> KindBuilder:
        _BUILDERS[kind] = fn
        return fn

    return decorate


def _as_data(data: DataLike) -> NormalisedData:
    """Normalise the accepted input types to a model or dense marginals."""
    if isinstance(data, (ProbabilisticModel, FrequencyDistributions)):
        return data
    array = np.asarray(data, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise SynopsisError(
            "plain data must be a non-empty 1-D frequency vector; "
            "use one of the probabilistic model classes for uncertain input"
        )
    return FrequencyDistributions.deterministic(array)


def build(data: DataLike, spec: SynopsisSpec) -> Union[Synopsis, List[Synopsis]]:
    """Build the synopsis (or budget sweep of synopses) a spec describes.

    Parameters
    ----------
    data:
        A probabilistic model (basic / tuple-pdf / value-pdf), precomputed
        :class:`FrequencyDistributions`, or a plain deterministic frequency
        vector.
    spec:
        The declarative build description; see :class:`SynopsisSpec`.  The
        spec was validated at construction, so only data-dependent checks
        (workload shape, budget vs. domain size) happen here.

    Returns one :class:`~repro.core.synopsis.Synopsis` for a scalar-budget
    spec, a list (one per budget, in spec order) for a sweep spec.
    """
    if not isinstance(spec, SynopsisSpec):
        raise SynopsisError(
            f"build expects a SynopsisSpec, got {type(spec).__name__}; "
            "describe the synopsis as SynopsisSpec(kind=..., budget=...)"
        )
    if spec.kind not in _BUILDERS:
        # Builders outside repro.core register at import; the partitioned
        # builder is the one built-in living elsewhere (lazy to avoid cycles).
        from ..partition import builder as _partition_builder  # noqa: F401
    builder = _BUILDERS.get(spec.kind)
    if builder is None:
        raise SynopsisError(f"no builder registered for synopsis kind {spec.kind!r}")
    normalised = _as_data(data)
    spec.validate_for_domain(normalised.domain_size)
    with span(
        "build.synopsis",
        kind=spec.kind,
        n=normalised.domain_size,
        budget=max(spec.budgets),
    ):
        results = builder(normalised, spec)
    return list(results) if spec.is_sweep else results[0]


@register_builder("histogram")
def _build_histograms(data: NormalisedData, spec: SynopsisSpec) -> List[Synopsis]:
    """Histograms: the DP for the largest budget, or the approximate scheme.

    Both methods share one cost oracle.  The optimal method resolves a DP
    kernel for it (``"auto"`` picks the fastest one the oracle certifies;
    unsuitable explicit names fall back) and reads every budget of a sweep
    off one solve.
    """
    from ..histograms.approx import approximate_histogram
    from ..histograms.factory import make_cost_function
    from ..histograms.kernels import resolve_kernel

    budgets = spec.budgets
    with span("build.cost_oracle", metric=str(spec.metric)):
        cost_fn = make_cost_function(
            data, spec.metric, sse_variant=spec.sse_variant, workload=spec.workload
        )
    if spec.method == "approximate":
        return [approximate_histogram(cost_fn, b, spec.epsilon) for b in budgets]
    max_buckets = max(budgets)
    with span("build.kernel_resolve", requested=spec.kernel) as resolve_trace:
        solver = resolve_kernel(spec.kernel, cost_fn)
        resolve_trace.set(kernel=solver.name)
    with span("build.dp", kernel=solver.name, buckets=max_buckets, n=cost_fn.domain_size):
        dp = solver.solve(cost_fn, max_buckets)
    return [dp.histogram(min(b, dp.max_buckets)) for b in budgets]


@register_builder("wavelet")
def _build_wavelets(data: NormalisedData, spec: SynopsisSpec) -> List[Synopsis]:
    """Wavelet synopses: SSE thresholding or the restricted-tree DP.

    For the SSE metric this is the ``O(n)`` optimal thresholding of the
    expected coefficients (Theorem 7).  For the other metrics the restricted
    coefficient-tree dynamic program is used (Theorem 8); like the histogram
    path, a budget sweep is served by a single tabulation for the largest
    budget.  With a workload the greedy SSE argument no longer applies, so
    every metric is routed through the restricted DP with workload-weighted
    leaf errors.
    """
    from ..wavelets.nonsse import restricted_wavelet_sweep
    from ..wavelets.sse import sse_optimal_wavelet

    budgets = spec.budgets
    if spec.metric.metric is ErrorMetric.SSE and spec.workload is None:
        return [sse_optimal_wavelet(data, b) for b in budgets]
    return restricted_wavelet_sweep(data, list(budgets), spec.metric, workload=spec.workload)
