"""Figure 3 experiment: histogram construction time (Section 5.1, "Scalability").

The paper measures the wall-clock cost of the optimal DP construction as a
function of the domain size ``n`` (with the bucket budget fixed) and of the
bucket budget ``B`` (with ``n`` fixed), observing a near-quadratic dependence
on ``n`` and a linear dependence on ``B`` — the ``O(B n^2)`` bound.  The same
measurement is reproduced here on the pure-Python/NumPy implementation;
absolute times differ from the paper's C code, but the scaling shape is the
reproduced quantity (EXPERIMENTS.md records both).  A ``kernel`` argument
selects the DP solver, so the same harness also measures the engine's other
kernels (``kernel="exact"`` reproduces the paper's sweep).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, List, Optional, Sequence, Union

from ..core.builders import build
from ..core.metrics import DEFAULT_SANITY, ErrorMetric, MetricSpec
from ..core.spec import SynopsisSpec
from ..datasets.movies import generate_movie_linkage
from ..histograms.kernels import AUTO_KERNEL
from ..models.base import ProbabilisticModel

__all__ = ["TimingPoint", "TimingResult", "run_timing_vs_domain", "run_timing_vs_buckets"]


@dataclasses.dataclass
class TimingPoint:
    """One measured configuration."""

    domain_size: int
    buckets: int
    seconds: float


@dataclasses.dataclass
class TimingResult:
    """A swept timing series (either over ``n`` or over ``B``)."""

    swept: str  # "domain_size" or "buckets"
    metric: str
    points: List[TimingPoint]

    def as_rows(self) -> List[dict]:
        return [dataclasses.asdict(point) for point in self.points]


def _time_construction(
    model: ProbabilisticModel, spec: MetricSpec, buckets: int, kernel: str
) -> float:
    build_spec = SynopsisSpec(kind="histogram", budget=buckets, metric=spec, kernel=kernel)
    start = time.perf_counter()
    build(model, build_spec)
    return time.perf_counter() - start


def run_timing_vs_domain(
    domain_sizes: Sequence[int],
    *,
    buckets: int = 50,
    metric: Union[str, ErrorMetric, MetricSpec] = ErrorMetric.SSRE,
    sanity: float = DEFAULT_SANITY,
    model_factory: Optional[Callable[[int], ProbabilisticModel]] = None,
    seed: Optional[int] = 7,
    kernel: str = AUTO_KERNEL,
) -> TimingResult:
    """Construction time as the domain size grows (Figure 3(a) analogue)."""
    spec = metric if isinstance(metric, MetricSpec) else MetricSpec.of(metric, sanity)
    factory = model_factory or (lambda n: generate_movie_linkage(n, seed=seed))
    points = []
    for n in domain_sizes:
        model = factory(int(n))
        seconds = _time_construction(model, spec, buckets, kernel)
        points.append(TimingPoint(domain_size=int(n), buckets=buckets, seconds=seconds))
    return TimingResult(swept="domain_size", metric=spec.describe(), points=points)


def run_timing_vs_buckets(
    bucket_budgets: Sequence[int],
    *,
    domain_size: int = 512,
    metric: Union[str, ErrorMetric, MetricSpec] = ErrorMetric.SSRE,
    sanity: float = DEFAULT_SANITY,
    model_factory: Optional[Callable[[int], ProbabilisticModel]] = None,
    seed: Optional[int] = 7,
    kernel: str = AUTO_KERNEL,
) -> TimingResult:
    """Construction time as the bucket budget grows (Figure 3(b) analogue)."""
    spec = metric if isinstance(metric, MetricSpec) else MetricSpec.of(metric, sanity)
    factory = model_factory or (lambda n: generate_movie_linkage(n, seed=seed))
    model = factory(int(domain_size))
    points = []
    for buckets in bucket_budgets:
        seconds = _time_construction(model, spec, int(buckets), kernel)
        points.append(
            TimingPoint(domain_size=int(domain_size), buckets=int(buckets), seconds=seconds)
        )
    return TimingResult(swept="buckets", metric=spec.describe(), points=points)
