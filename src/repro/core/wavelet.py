"""Wavelet synopses: sparse sets of retained Haar coefficients.

A ``B``-term wavelet synopsis keeps ``B`` of the ``N`` Haar DWT coefficients
of the (expected) frequency vector and implicitly sets the rest to zero
(Section 2.2 / Section 4 of the paper).  The synopsis stores coefficients in
the *normalised* (orthonormal) Haar basis, which is the basis in which the
SSE of the data approximation equals the SSE of the coefficient
approximation (Parseval).

Like :class:`~repro.core.histogram.Histogram`, this class is a value object:
thresholding algorithms live in :mod:`repro.wavelets`.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

import numpy as np

from ..exceptions import SynopsisError
from ._validation import check_item_ranges
from .synopsis import Synopsis

__all__ = ["WaveletSynopsis"]


class WaveletSynopsis(Synopsis):
    """A sparse Haar-coefficient synopsis over the ordered domain ``[0, n)``.

    Parameters
    ----------
    coefficients:
        Mapping from coefficient index (position in the length-``N`` Haar
        transform, ``N`` being ``n`` rounded up to a power of two) to the
        retained *normalised* coefficient value.
    domain_size:
        The size ``n`` of the original ordered domain.
    """

    kind = "wavelet"

    __slots__ = ("_indices", "_values", "_domain_size", "_length", "_geometry")

    def __init__(self, coefficients: Mapping[int, float], domain_size: int):
        coeffs: Dict[int, float] = {}
        for index, value in coefficients.items():
            coeffs[int(index)] = float(value)
        ordered = sorted(coeffs)
        self._init_from_arrays(
            np.array(ordered, dtype=np.int64),
            np.array([coeffs[index] for index in ordered], dtype=float),
            domain_size,
        )

    def _init_from_arrays(
        self, indices: np.ndarray, values: np.ndarray, domain_size: int
    ) -> None:
        """Shared constructor body over the sorted coefficient arrays.

        The synopsis is stored columnar internally — parallel ``indices`` /
        ``values`` arrays in increasing index order — which is both what the
        batch estimation geometry wants and what the columnar storage format
        persists.  The arrays are adopted as-is (read-only mmap-backed views
        included); every internal use only reads them.
        """
        if domain_size <= 0:
            raise SynopsisError("domain_size must be positive")
        length = 1
        while length < domain_size:
            length *= 2
        if indices.size != values.size:
            raise SynopsisError("coefficient indices and values must be equally sized")
        if indices.size:
            if int(indices[0]) < 0 or int(indices[-1]) >= length:
                bad = indices[0] if int(indices[0]) < 0 else indices[-1]
                raise SynopsisError(
                    f"coefficient index {int(bad)} outside the transform range [0, {length})"
                )
            if np.any(indices[1:] <= indices[:-1]):
                raise SynopsisError(
                    "coefficient indices must be strictly increasing (sorted, no duplicates)"
                )
        self._indices = indices
        self._values = values
        self._domain_size = int(domain_size)
        self._length = length
        self._geometry = None

    @classmethod
    def from_arrays(
        cls, indices: np.ndarray, values: np.ndarray, domain_size: int
    ) -> "WaveletSynopsis":
        """Build directly from sorted parallel coefficient arrays, no copying.

        The columnar-storage fast path: ``indices`` (strictly increasing) and
        ``values`` are adopted by reference when they already have the right
        dtypes — read-only memory-mapped views included — so a synopsis loaded
        from a pack file materialises no Python dict.
        """
        instance = object.__new__(cls)
        instance._init_from_arrays(
            np.asarray(indices, dtype=np.int64),
            np.asarray(values, dtype=float),
            domain_size,
        )
        return instance

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def coefficients(self) -> Dict[int, float]:
        """The retained ``{index: normalised value}`` coefficients."""
        return dict(zip(self._indices.tolist(), self._values.tolist()))

    @property
    def indices(self) -> Tuple[int, ...]:
        """The retained coefficient indices, sorted increasingly."""
        return tuple(self._indices.tolist())

    def column_arrays(self) -> Dict[str, np.ndarray]:
        """The internal columnar state, **by reference** — treat as read-only.

        ``{indices, values}`` exactly as the columnar storage format persists
        them; the inverse of :meth:`from_arrays`.  For a synopsis loaded from
        a pack these are the mmap-backed views themselves (mutating them
        raises).
        """
        return {"indices": self._indices, "values": self._values}

    @property
    def domain_size(self) -> int:
        """The size ``n`` of the original ordered domain."""
        return self._domain_size

    @property
    def transform_length(self) -> int:
        """The padded transform length ``N`` (``n`` rounded up to a power of two)."""
        return self._length

    @property
    def term_count(self) -> int:
        """Number of retained coefficients ``B`` (the space budget)."""
        return int(self._indices.size)

    @property
    def size(self) -> int:
        """Space consumed in budget units (the :class:`Synopsis` protocol view)."""
        return self.term_count

    def __len__(self) -> int:
        return self.term_count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WaveletSynopsis):
            return NotImplemented
        if self._domain_size != other._domain_size:
            return False
        if not np.array_equal(self._indices, other._indices):
            return False
        return bool(np.all(np.abs(self._values - other._values) <= 1e-12))

    def __repr__(self) -> str:
        return (
            f"WaveletSynopsis(terms={self.term_count}, n={self.domain_size}, "
            f"N={self.transform_length})"
        )

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def coefficient_vector(self) -> np.ndarray:
        """Dense length-``N`` vector of normalised coefficients (zeros elsewhere)."""
        dense = np.zeros(self._length, dtype=float)
        dense[self._indices] = self._values
        return dense

    def estimates(self) -> np.ndarray:
        """Reconstructed frequency estimates ``ĝ`` over the original domain."""
        # Imported lazily to keep the core value objects free of an import
        # cycle with the construction algorithms.
        from ..wavelets.haar import inverse_haar_transform

        reconstructed = inverse_haar_transform(self.coefficient_vector(), normalised=True)
        return reconstructed[: self._domain_size]

    def estimate(self, item: int) -> float:
        """Approximate frequency ``ĝ_i`` of a single item."""
        if not 0 <= item < self._domain_size:
            raise SynopsisError(f"item {item} outside the domain [0, {self._domain_size})")
        return float(self.estimates()[item])

    # ------------------------------------------------------------------
    # Coefficient-tree batch evaluation (the serving-layer primitives)
    # ------------------------------------------------------------------
    def _coefficient_geometry(self):
        """Cached per-coefficient ``(scaled value, support start, mid, end)`` arrays.

        Each retained coefficient influences one contiguous support range of
        the error tree: positively on ``[start, mid)`` and negatively on
        ``[mid, end]`` (the overall average ``c_0`` is positive everywhere,
        modelled as ``mid = end + 1``).  Evaluating queries directly against
        these ``B`` ranges avoids reconstructing all ``N`` leaves.
        """
        if self._geometry is None:
            from ..wavelets.haar import coefficient_support, normalisation_factors

            indices = self._indices
            values = self._values
            factors = normalisation_factors(self._length)
            scaled = values / factors[indices] if indices.size else values
            starts = np.empty(indices.size, dtype=np.int64)
            mids = np.empty(indices.size, dtype=np.int64)
            ends = np.empty(indices.size, dtype=np.int64)
            for j, index in enumerate(indices):
                start, end = coefficient_support(int(index), self._length)
                starts[j] = start
                ends[j] = end
                mids[j] = end + 1 if index == 0 else (start + end + 1) // 2
            self._geometry = (scaled, starts, mids, ends)
        return self._geometry

    def estimate_batch(self, items: np.ndarray) -> np.ndarray:
        """Approximate frequencies of many items in one vectorised pass.

        A point estimate is the width-1 range sum, so this delegates to
        :meth:`range_sum_estimates` (``O(Q B)`` dense NumPy work) instead of
        running the ``O(N)`` inverse transform per query — small synopses
        answer large batches without materialising the full reconstruction.
        Bounds checking (items within ``[0, n)``) happens there too.
        """
        items = np.asarray(items, dtype=np.int64)
        return self.range_sum_estimates(items, items)

    def range_sum_estimates(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Estimated range sums for many inclusive ``[starts[i], ends[i]]`` ranges.

        A retained coefficient contributes ``value * (overlap with its
        positive half - overlap with its negative half)`` to a range sum, so
        each query reduces to clipped interval arithmetic against the ``B``
        support ranges — again ``O(Q B)`` with no reconstruction.
        """
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        check_item_ranges(starts, ends, self._domain_size)
        scaled, sup_starts, sup_mids, sup_ends = self._coefficient_geometry()
        if scaled.size == 0 or starts.size == 0:
            return np.zeros(starts.shape, dtype=float)
        lo = starts[:, None]
        hi = ends[:, None]
        positive = np.maximum(
            0, np.minimum(hi, sup_mids[None, :] - 1) - np.maximum(lo, sup_starts[None, :]) + 1
        )
        negative = np.maximum(
            0, np.minimum(hi, sup_ends[None, :]) - np.maximum(lo, sup_mids[None, :]) + 1
        )
        return (positive - negative).astype(float) @ scaled

    def range_sum_estimate(self, start: int, end: int) -> float:
        """Estimated sum of frequencies over the inclusive item range ``[start, end]``.

        The scalar counterpart of :meth:`range_sum_estimates`.
        """
        if end < start:
            return 0.0
        result = self.range_sum_estimates(np.array([start]), np.array([end]))
        return float(result[0])

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-friendly representation of the synopsis."""
        return {
            "domain_size": self._domain_size,
            "coefficients": {
                str(k): v for k, v in zip(self._indices.tolist(), self._values.tolist())
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "WaveletSynopsis":
        """Inverse of :meth:`to_dict`."""
        coefficients = {int(k): float(v) for k, v in payload["coefficients"].items()}
        return cls(coefficients, int(payload["domain_size"]))

    def to_columns(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """The domain size and the two coefficient columns of :meth:`column_arrays`."""
        return {"domain_size": self._domain_size}, self.column_arrays()

    @classmethod
    def from_columns(
        cls, meta: Dict[str, Any], columns: Dict[str, np.ndarray]
    ) -> "WaveletSynopsis":
        """Inverse of :meth:`to_columns`, through :meth:`from_arrays` (no copies)."""
        return cls.from_arrays(columns["indices"], columns["values"], int(meta["domain_size"]))
