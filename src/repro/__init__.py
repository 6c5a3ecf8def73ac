"""Histogram and wavelet synopses for probabilistic data.

A faithful, production-oriented Python implementation of
"Histograms and Wavelets on Probabilistic Data"
(Graham Cormode and Minos Garofalakis, ICDE 2009).

The public API re-exported here covers the typical workflow:

1. describe the uncertain data with one of the models
   (:class:`BasicModel`, :class:`TuplePdfModel`, :class:`ValuePdfModel`);
2. describe the synopsis with a :class:`SynopsisSpec` (kind, budget,
   :class:`ErrorMetric`, construction knobs) and build it with
   :func:`build`;
3. evaluate it with :func:`expected_error`, or query it through the
   :class:`Synopsis` protocol (``estimates()``, ``range_sum_estimates``...).

Lower-level building blocks (bucket-cost oracles, the dynamic programs, the
Haar substrate, dataset generators and the experiment harness) live in the
subpackages ``repro.histograms``, ``repro.wavelets``, ``repro.models``,
``repro.datasets``, ``repro.evaluation`` and ``repro.experiments``.
"""

from ._version import __version__
from .core import (
    DEFAULT_SANITY,
    Bucket,
    ErrorMetric,
    Histogram,
    MetricSpec,
    PartitionSpec,
    QueryWorkload,
    Synopsis,
    SynopsisSpec,
    WaveletSynopsis,
    build,
    point_error,
    synopsis_kinds,
)
from .evaluation import expected_error, per_item_expected_errors
from .exceptions import (
    BudgetClampWarning,
    BudgetSweepWarning,
    DomainError,
    EvaluationError,
    KernelFallbackWarning,
    ModelValidationError,
    ProtocolError,
    ReproError,
    StoreCorruptionError,
    SynopsisError,
    VersionMismatchError,
    WorldEnumerationError,
)
from .partition import PartitionedSynopsis
from .models import (
    BasicModel,
    FrequencyDistributions,
    PossibleWorld,
    ProbabilisticModel,
    ProbabilisticTuple,
    TuplePdfModel,
    ValueGrid,
    ValuePdfModel,
)

__all__ = [
    "__version__",
    # models
    "ProbabilisticModel",
    "BasicModel",
    "TuplePdfModel",
    "ProbabilisticTuple",
    "ValuePdfModel",
    "ValueGrid",
    "FrequencyDistributions",
    "PossibleWorld",
    # metrics and synopses
    "ErrorMetric",
    "MetricSpec",
    "DEFAULT_SANITY",
    "point_error",
    "Bucket",
    "Histogram",
    "WaveletSynopsis",
    "Synopsis",
    "SynopsisSpec",
    "PartitionSpec",
    "PartitionedSynopsis",
    "synopsis_kinds",
    "QueryWorkload",
    # builders and evaluation
    "build",
    "expected_error",
    "per_item_expected_errors",
    # exceptions and warnings
    "ReproError",
    "ModelValidationError",
    "DomainError",
    "SynopsisError",
    "EvaluationError",
    "ProtocolError",
    "VersionMismatchError",
    "StoreCorruptionError",
    "WorldEnumerationError",
    "BudgetClampWarning",
    "BudgetSweepWarning",
    "KernelFallbackWarning",
]
