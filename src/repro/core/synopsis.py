"""The :class:`Synopsis` protocol and the fixed table of synopsis kinds.

Every synopsis the package can build — a bucket histogram, a sparse
Haar-coefficient set, or a partitioned composite of either — supports the
same read surface: scalar and vectorised frequency estimation, range sums,
a JSON-friendly ``to_dict``/``from_dict`` round trip, and the named numpy
columns the columnar pack stores (``to_columns``/``from_columns``).  This
module makes that contract explicit as an abstract base class.

The kinds are a closed set.  Each class names its own ``kind`` (the string
in :class:`~repro.core.spec.SynopsisSpec` and in serialized payloads), and
:func:`synopsis_class` maps a kind back to its class through one fixed
table, so the IO layer, the serving store and the batch engine dispatch on
kind without an ``isinstance`` chain.
"""

from __future__ import annotations

import abc
import functools
from typing import Any, ClassVar, Dict, Tuple, Type

import numpy as np

from ..exceptions import SynopsisError

__all__ = [
    "Synopsis",
    "synopsis_class",
    "synopsis_kinds",
    "synopsis_kind_of",
]


class Synopsis(abc.ABC):
    """Abstract contract every servable synopsis satisfies.

    Value-object semantics: a synopsis is immutable once built and knows
    nothing about how it was constructed — construction parameters live in
    :class:`~repro.core.spec.SynopsisSpec`, construction algorithms in the
    ``repro.histograms`` / ``repro.wavelets`` subpackages.
    """

    __slots__ = ()

    #: The name of this synopsis kind, set in each class body.
    kind: ClassVar[str]

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def domain_size(self) -> int:
        """The size ``n`` of the ordered domain the synopsis summarises."""

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Space actually consumed, in budget units (buckets / coefficients)."""

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def estimate(self, item: int) -> float:
        """Approximate frequency ``ĝ_i`` of a single item."""

    @abc.abstractmethod
    def estimates(self) -> np.ndarray:
        """The full vector of approximate frequencies ``ĝ``, length ``n``."""

    @abc.abstractmethod
    def estimate_batch(self, items: np.ndarray) -> np.ndarray:
        """Approximate frequencies of many items in one vectorised pass."""

    @abc.abstractmethod
    def range_sum_estimate(self, start: int, end: int) -> float:
        """Estimated frequency sum over the inclusive item range ``[start, end]``."""

    @abc.abstractmethod
    def range_sum_estimates(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Estimated range sums for many inclusive ``[starts[i], ends[i]]`` ranges."""

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (without the ``kind`` discriminator)."""

    @classmethod
    @abc.abstractmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Synopsis":
        """Inverse of :meth:`to_dict`."""

    @abc.abstractmethod
    def to_columns(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """``(meta, columns)`` as the columnar pack stores them.

        ``meta`` holds JSON-friendly scalars; ``columns`` are the synopsis's
        own arrays, **by reference** — treat them as read-only.
        """

    @classmethod
    @abc.abstractmethod
    def from_columns(cls, meta: Dict[str, Any], columns: Dict[str, np.ndarray]) -> "Synopsis":
        """Inverse of :meth:`to_columns`; adopts the column arrays without copying."""


@functools.cache
def _classes() -> Dict[str, Type[Synopsis]]:
    # Imported here because each class's module imports this one.
    from ..partition.synopsis import PartitionedSynopsis
    from .histogram import Histogram
    from .wavelet import WaveletSynopsis

    return {cls.kind: cls for cls in (Histogram, PartitionedSynopsis, WaveletSynopsis)}


def synopsis_class(kind: str) -> Type[Synopsis]:
    """The :class:`Synopsis` subclass for ``kind``."""
    classes = _classes()
    try:
        return classes[kind]
    except KeyError:
        valid = ", ".join(sorted(classes))
        raise SynopsisError(
            f"unknown synopsis kind {kind!r}; expected one of: {valid}"
        ) from None


def synopsis_kinds() -> Tuple[str, ...]:
    """All synopsis kinds, sorted."""
    return tuple(sorted(_classes()))


def synopsis_kind_of(synopsis: Synopsis) -> str:
    """The kind of a synopsis instance (its serialisation discriminator)."""
    if isinstance(synopsis, Synopsis):
        return type(synopsis).kind
    raise SynopsisError(
        f"cannot determine synopsis kind of {type(synopsis).__name__}; "
        "servable synopses subclass repro.core.synopsis.Synopsis"
    )
