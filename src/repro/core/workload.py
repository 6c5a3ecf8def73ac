"""Query workloads: per-item importance weights for workload-aware synopses.

The error objectives of the paper implicitly assume a *uniform* workload of
point queries — every item's approximation error counts equally.  The paper's
concluding remarks call out the generalisation "when in addition to a
distribution over the input data, there is also a distribution over the
queries to be answered" as an open direction; this module implements that
extension for the histogram constructions and the evaluation engine.

A :class:`QueryWorkload` assigns a non-negative weight ``phi_i`` to every item
of the ordered domain.  Weighted objectives simply scale the per-item expected
errors:

* cumulative metrics minimise ``E_W[sum_i phi_i * err(g_i, ĝ_i)]``;
* maximum metrics minimise ``max_i phi_i * E_W[err(g_i, ĝ_i)]``.

All of the paper's prefix-array bucket-cost machinery carries over because the
weights multiply per-item quantities (see the ``workload`` parameter of
:func:`repro.histograms.factory.make_cost_function` and the ``workload`` field
of :class:`repro.core.spec.SynopsisSpec`).  A uniform workload (all weights
equal to one) reproduces the unweighted objectives exactly, which the
test-suite verifies.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ..exceptions import EvaluationError

__all__ = ["QueryWorkload"]


class QueryWorkload:
    """Non-negative per-item query weights over the ordered domain ``[0, n)``."""

    __slots__ = ("_weights",)

    def __init__(self, weights: Iterable[float]):
        array = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights, dtype=float)
        if array.ndim != 1 or array.size == 0:
            raise EvaluationError("a query workload needs a non-empty 1-D weight vector")
        if not np.all(np.isfinite(array)):
            raise EvaluationError("workload weights must be finite")
        if np.any(array < 0):
            raise EvaluationError("workload weights must be non-negative")
        if not np.any(array > 0):
            raise EvaluationError("a query workload needs at least one positive weight")
        array = array.copy()
        array.setflags(write=False)
        self._weights = array

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def weights(self) -> np.ndarray:
        """The read-only per-item weight vector ``phi``."""
        return self._weights

    @property
    def domain_size(self) -> int:
        """Number of items the workload covers."""
        return int(self._weights.size)

    def __len__(self) -> int:
        return self.domain_size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryWorkload):
            return NotImplemented
        return self._weights.shape == other._weights.shape and bool(
            np.allclose(self._weights, other._weights)
        )

    def __repr__(self) -> str:
        return (
            f"QueryWorkload(n={self.domain_size}, total={self._weights.sum():.4g}, "
            f"max={self._weights.max():.4g})"
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def normalised(self) -> "QueryWorkload":
        """The same workload scaled so the weights sum to the domain size.

        Scaling a workload multiplies every objective by a constant and leaves
        the optimal synopses unchanged; normalising keeps weighted and
        unweighted error values on a comparable scale.
        """
        scale = self.domain_size / float(self._weights.sum())
        return QueryWorkload(self._weights * scale)

    def restricted_to(self, start: int, end: int) -> np.ndarray:
        """Weights of the contiguous item range ``[start, end]`` (inclusive)."""
        if not (0 <= start <= end < self.domain_size):
            raise EvaluationError(f"invalid item range [{start}, {end}]")
        return self._weights[start : end + 1]

    def for_domain(self, domain_size: int) -> np.ndarray:
        """The weight vector, validated against a data domain of ``domain_size`` items."""
        if domain_size != self.domain_size:
            raise EvaluationError(
                f"workload covers {self.domain_size} items but the data domain has {domain_size}"
            )
        return self._weights

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def coerce(
        cls,
        workload: Optional[Union["QueryWorkload", Sequence[float], np.ndarray]],
        domain_size: int,
    ) -> Optional["QueryWorkload"]:
        """Normalise the accepted ``workload=`` argument forms.

        ``None`` stays ``None`` (the uniform, unweighted objective); a
        :class:`QueryWorkload` is validated against the domain; any other
        sequence is wrapped.
        """
        if workload is None:
            return None
        if not isinstance(workload, cls):
            workload = cls(workload)
        workload.for_domain(domain_size)
        return workload

    @classmethod
    def uniform(cls, domain_size: int) -> "QueryWorkload":
        """The uniform workload: every item weighted one."""
        if domain_size <= 0:
            raise EvaluationError("domain_size must be positive")
        return cls(np.ones(domain_size))

    @classmethod
    def from_query_ranges(
        cls,
        ranges: Sequence[tuple],
        domain_size: int,
        *,
        smoothing: float = 0.0,
    ) -> "QueryWorkload":
        """Workload induced by a log of range queries.

        Each ``(start, end)`` (or ``(start, end, count)``) entry adds ``count``
        (default 1) to every item the range touches; ``smoothing`` adds a
        constant floor so unqueried items keep a small positive weight.
        """
        if domain_size <= 0:
            raise EvaluationError("domain_size must be positive")
        weights = np.full(domain_size, float(smoothing))
        for entry in ranges:
            if len(entry) == 2:
                start, end = entry
                count = 1.0
            else:
                start, end, count = entry
            if not (0 <= start <= end < domain_size):
                raise EvaluationError(f"query range {entry!r} outside the domain [0, {domain_size})")
            weights[int(start) : int(end) + 1] += float(count)
        return cls(weights)

    @classmethod
    def zipf_hotspot(
        cls,
        domain_size: int,
        *,
        skew: float = 1.0,
        hotspot: int = 0,
        seed: Optional[int] = None,
    ) -> "QueryWorkload":
        """A skewed workload whose interest decays with distance from a hot spot.

        Items near ``hotspot`` receive Zipf-decaying weight; a small random
        permutation-free floor keeps every weight positive.  Useful for
        experiments on workload-aware synopses.
        """
        if domain_size <= 0:
            raise EvaluationError("domain_size must be positive")
        if not 0 <= hotspot < domain_size:
            raise EvaluationError(f"hotspot {hotspot} outside the domain [0, {domain_size})")
        distances = np.abs(np.arange(domain_size) - hotspot) + 1.0
        weights = distances ** (-float(skew))
        if seed is not None:
            rng = np.random.default_rng(seed)
            weights = weights * rng.uniform(0.9, 1.1, size=domain_size)
        return cls(weights + 1e-6)
