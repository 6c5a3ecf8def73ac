"""Histogram synopses: buckets, representatives and frequency estimates.

A ``B``-bucket histogram partitions the ordered domain ``[0, n)`` into ``B``
contiguous buckets; every item falling in bucket ``k`` is approximated by the
bucket's single representative value ``b̂_k`` (Section 2.2 of the paper).
The classes here are pure value objects — construction algorithms live in
:mod:`repro.histograms`, evaluation in :mod:`repro.evaluation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..exceptions import SynopsisError
from ._validation import check_item_ranges
from .synopsis import Synopsis

__all__ = ["Bucket", "Histogram"]


@dataclass(frozen=True)
class Bucket:
    """One histogram bucket: an inclusive item span and its representative value."""

    start: int
    end: int
    representative: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise SynopsisError(f"invalid bucket span [{self.start}, {self.end}]")

    @property
    def width(self) -> int:
        """Number of distinct items the bucket spans (``n_k`` in the paper)."""
        return self.end - self.start + 1

    def covers(self, item: int) -> bool:
        """Whether ``item`` falls inside this bucket."""
        return self.start <= item <= self.end

    def __repr__(self) -> str:
        return f"Bucket([{self.start}, {self.end}], rep={self.representative:.6g})"


class Histogram(Synopsis):
    """A bucket histogram over the ordered domain ``[0, n)``.

    Parameters
    ----------
    buckets:
        Buckets in increasing item order.  They must tile the domain exactly:
        the first starts at 0, each starts right after its predecessor ends,
        and the last ends at ``domain_size - 1``.
    domain_size:
        The size ``n`` of the ordered domain.
    """

    kind = "histogram"

    __slots__ = ("_buckets", "_domain_size", "_starts", "_ends", "_reps", "_prefix_mass")

    def __init__(self, buckets: Iterable[Bucket], domain_size: int):
        bucket_list = list(buckets)
        if not bucket_list:
            raise SynopsisError("a histogram needs at least one bucket")
        self._init_from_arrays(
            np.array([b.start for b in bucket_list], dtype=np.int64),
            np.array([b.end for b in bucket_list], dtype=np.int64),
            np.array([b.representative for b in bucket_list], dtype=float),
            domain_size,
        )
        self._buckets = tuple(bucket_list)

    def _init_from_arrays(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        representatives: np.ndarray,
        domain_size: int,
    ) -> None:
        """Shared constructor body over the cached lookup arrays.

        Estimation is the hot read path, so item -> bucket resolution and
        range sums must not rebuild per-bucket lists per query;
        ``_prefix_mass[k]`` = total estimated mass of buckets < k.  The
        validation is vectorised: the spans must tile ``[0, domain_size)``
        exactly.  The arrays are adopted as-is (read-only mmap-backed views
        included) — every internal use only reads them.
        """
        if domain_size <= 0:
            raise SynopsisError("domain_size must be positive")
        if not (starts.size == ends.size == representatives.size) or starts.size == 0:
            raise SynopsisError(
                "starts, ends and representatives must be equally sized and non-empty"
            )
        if int(starts[0]) != 0 or not np.array_equal(starts[1:], ends[:-1] + 1):
            raise SynopsisError(
                "buckets do not partition the domain: spans must start at 0 and "
                "each bucket must start right after its predecessor ends"
            )
        if np.any(ends < starts):
            bad = int(np.argmax(ends < starts))
            raise SynopsisError(f"invalid bucket span [{starts[bad]}, {ends[bad]}]")
        if int(ends[-1]) != domain_size - 1:
            raise SynopsisError(
                f"buckets cover [0, {int(ends[-1]) + 1}) but the domain is [0, {domain_size})"
            )
        self._buckets = None
        self._domain_size = int(domain_size)
        self._starts = starts
        self._ends = ends
        self._reps = representatives
        widths = self._ends - self._starts + 1
        self._prefix_mass = np.concatenate([[0.0], np.cumsum(self._reps * widths)])

    @classmethod
    def from_arrays(
        cls,
        starts: np.ndarray,
        ends: np.ndarray,
        representatives: np.ndarray,
        domain_size: int,
    ) -> "Histogram":
        """Build directly from parallel bucket arrays, without copying.

        The columnar-storage fast path: ``starts``/``ends``/``representatives``
        are adopted by reference when they already have the right dtypes —
        read-only memory-mapped views included — so a histogram loaded from a
        pack file materialises no per-bucket Python objects and no array
        copies.  :class:`Bucket` objects are created lazily on first access
        to :attr:`buckets`.
        """
        instance = object.__new__(cls)
        instance._init_from_arrays(
            np.asarray(starts, dtype=np.int64),
            np.asarray(ends, dtype=np.int64),
            np.asarray(representatives, dtype=float),
            domain_size,
        )
        return instance

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def buckets(self) -> Tuple[Bucket, ...]:
        """The buckets, in domain order (materialised lazily)."""
        if self._buckets is None:
            self._buckets = tuple(
                Bucket(int(start), int(end), float(rep))
                for start, end, rep in zip(self._starts, self._ends, self._reps)
            )
        return self._buckets

    @property
    def domain_size(self) -> int:
        """The size ``n`` of the ordered domain."""
        return self._domain_size

    @property
    def bucket_count(self) -> int:
        """Number of buckets ``B`` (the space budget)."""
        return int(self._starts.size)

    @property
    def size(self) -> int:
        """Space consumed in budget units (the :class:`Synopsis` protocol view)."""
        return self.bucket_count

    @property
    def boundaries(self) -> List[Tuple[int, int]]:
        """The ``(start, end)`` spans of all buckets."""
        return list(zip(self._starts.tolist(), self._ends.tolist()))

    @property
    def representatives(self) -> np.ndarray:
        """The bucket representative values, in bucket order (a copy)."""
        return self._reps.copy()

    def column_arrays(self) -> Dict[str, np.ndarray]:
        """The internal columnar state, **by reference** — treat as read-only.

        ``{starts, ends, representatives}`` exactly as the columnar storage
        format persists them; the inverse of :meth:`from_arrays`.  For a
        synopsis loaded from a pack these are the mmap-backed views
        themselves (mutating them raises).
        """
        return {"starts": self._starts, "ends": self._ends, "representatives": self._reps}

    def __len__(self) -> int:
        return self.bucket_count

    def __iter__(self):
        return iter(self.buckets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self._domain_size == other._domain_size
            and self.boundaries == other.boundaries
            and np.allclose(self.representatives, other.representatives)
        )

    def __repr__(self) -> str:
        return f"Histogram(buckets={self.bucket_count}, n={self.domain_size})"

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def bucket_of(self, item: int) -> Bucket:
        """The bucket containing ``item``."""
        if not 0 <= item < self._domain_size:
            raise SynopsisError(f"item {item} outside the domain [0, {self._domain_size})")
        idx = int(np.searchsorted(self._starts, item, side="right")) - 1
        return self.buckets[idx]

    def estimate(self, item: int) -> float:
        """Approximate frequency ``ĝ_i`` of a single item."""
        return float(self.bucket_of(item).representative)

    def estimates(self) -> np.ndarray:
        """The full vector of approximate frequencies ``ĝ``, length ``n``."""
        return np.repeat(self._reps, self._ends - self._starts + 1)

    def range_sum_estimate(self, start: int, end: int) -> float:
        """Estimated sum of frequencies over the inclusive item range ``[start, end]``.

        This is the classic approximate-query-processing use of a histogram:
        each bucket contributes its representative times the overlap width.
        Resolved in ``O(log B)`` from the cached bucket-start index and the
        prefix-mass array rather than by scanning every bucket.
        """
        if end < start:
            return 0.0
        if start < 0 or end >= self._domain_size:
            raise SynopsisError(
                f"range [{start}, {end}] outside the domain [0, {self._domain_size})"
            )
        lo = int(np.searchsorted(self._starts, start, side="right")) - 1
        hi = int(np.searchsorted(self._starts, end, side="right")) - 1
        if lo == hi:
            return float(self._reps[lo] * (end - start + 1))
        # Partial first and last buckets plus the full buckets in between.
        total = self._reps[lo] * (self._ends[lo] - start + 1)
        total += self._reps[hi] * (end - self._starts[hi] + 1)
        total += self._prefix_mass[hi] - self._prefix_mass[lo + 1]
        return float(total)

    # ------------------------------------------------------------------
    # Vectorised batch estimation (the serving-layer primitives)
    # ------------------------------------------------------------------
    def estimate_batch(self, items: np.ndarray) -> np.ndarray:
        """Approximate frequencies of many items in one vectorised pass.

        The batch counterpart of :meth:`estimate`: one ``searchsorted`` over
        the cached bucket starts resolves every item, so the cost is
        ``O(Q log B)`` with no per-query Python work.
        """
        items = np.asarray(items, dtype=np.int64)
        if items.size and (items.min() < 0 or items.max() >= self._domain_size):
            bad = items[(items < 0) | (items >= self._domain_size)][0]
            raise SynopsisError(f"item {bad} outside the domain [0, {self._domain_size})")
        indices = np.searchsorted(self._starts, items, side="right") - 1
        return self._reps[indices]

    def range_sum_estimates(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Estimated range sums for many inclusive ``[starts[i], ends[i]]`` ranges.

        The batch counterpart of :meth:`range_sum_estimate`: two
        ``searchsorted`` calls locate every range's first and last bucket and
        the prefix-mass array supplies the interior, so the cost is
        ``O(Q log B)`` for ``Q`` ranges regardless of how many buckets each
        range crosses.
        """
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        check_item_ranges(starts, ends, self._domain_size)
        if starts.size == 0:
            return np.zeros(0, dtype=float)
        lo = np.searchsorted(self._starts, starts, side="right") - 1
        hi = np.searchsorted(self._starts, ends, side="right") - 1
        single = lo == hi
        totals = self._reps[lo] * (self._ends[lo] - starts + 1)
        totals += self._reps[hi] * (ends - self._starts[hi] + 1)
        totals += self._prefix_mass[hi] - self._prefix_mass[lo + 1]
        return np.where(single, self._reps[lo] * (ends - starts + 1), totals)

    # ------------------------------------------------------------------
    # Construction helpers / serialisation
    # ------------------------------------------------------------------
    @classmethod
    def from_boundaries(
        cls,
        boundaries: Sequence[Tuple[int, int]],
        representatives: Sequence[float],
        domain_size: int,
    ) -> "Histogram":
        """Build from parallel boundary / representative sequences."""
        if len(boundaries) != len(representatives):
            raise SynopsisError("boundaries and representatives must have equal length")
        buckets = [
            Bucket(start=start, end=end, representative=float(rep))
            for (start, end), rep in zip(boundaries, representatives)
        ]
        return cls(buckets, domain_size)

    def to_dict(self) -> Dict:
        """JSON-friendly representation of the histogram."""
        return {
            "domain_size": self._domain_size,
            "buckets": [
                {"start": start, "end": end, "representative": rep}
                for start, end, rep in zip(
                    self._starts.tolist(), self._ends.tolist(), self._reps.tolist()
                )
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "Histogram":
        """Inverse of :meth:`to_dict`."""
        buckets = [
            Bucket(int(b["start"]), int(b["end"]), float(b["representative"]))
            for b in payload["buckets"]
        ]
        return cls(buckets, int(payload["domain_size"]))

    def to_columns(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """The domain size and the three bucket columns of :meth:`column_arrays`."""
        return {"domain_size": self._domain_size}, self.column_arrays()

    @classmethod
    def from_columns(cls, meta: Dict[str, Any], columns: Dict[str, np.ndarray]) -> "Histogram":
        """Inverse of :meth:`to_columns`, through :meth:`from_arrays` (no copies)."""
        return cls.from_arrays(
            columns["starts"],
            columns["ends"],
            columns["representatives"],
            int(meta["domain_size"]),
        )
