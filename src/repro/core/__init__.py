"""Core abstractions: metrics, specs, the synopsis protocol and builders."""

from .builders import build
from .histogram import Bucket, Histogram
from .metrics import (
    DEFAULT_SANITY,
    ErrorMetric,
    MetricSpec,
    is_cumulative,
    is_maximum,
    is_relative,
    is_squared,
    point_error,
)
from .spec import PartitionSpec, SynopsisSpec
from .synopsis import Synopsis, synopsis_class, synopsis_kinds
from .wavelet import WaveletSynopsis
from .workload import QueryWorkload

__all__ = [
    "QueryWorkload",
    "ErrorMetric",
    "MetricSpec",
    "DEFAULT_SANITY",
    "point_error",
    "is_cumulative",
    "is_maximum",
    "is_squared",
    "is_relative",
    "Bucket",
    "Histogram",
    "WaveletSynopsis",
    "Synopsis",
    "SynopsisSpec",
    "PartitionSpec",
    "synopsis_class",
    "synopsis_kinds",
    "build",
]
