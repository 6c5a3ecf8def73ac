"""Batch query model for the synopsis serving layer.

A deployed synopsis answers three query classes, all derivable from the
estimated frequency vector ``ĝ`` without ever materialising it:

* **point** — ``ĝ_i`` for one item ``i``;
* **range_sum** — ``sum_{i in [s, e]} ĝ_i``;
* **range_avg** — the range sum divided by the range width.

:class:`QueryBatch` stores a heterogeneous mix of such queries in
structure-of-arrays form (a kind-code vector plus start/end vectors), which
is what lets the engine answer the whole batch with a handful of dense NumPy
operations instead of one Python dispatch per query.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Sequence, Tuple

import numpy as np

from ..exceptions import EvaluationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .protocol import QueryRequest

__all__ = ["QueryBatch", "POINT", "RANGE_SUM", "RANGE_AVG", "QUERY_KINDS"]

#: Query-kind names, in kind-code order (the code is the index).
POINT = "point"
RANGE_SUM = "range_sum"
RANGE_AVG = "range_avg"
QUERY_KINDS: Tuple[str, ...] = (POINT, RANGE_SUM, RANGE_AVG)

_KIND_CODES = {name: code for code, name in enumerate(QUERY_KINDS)}


class QueryBatch:
    """An ordered batch of point / range-sum / range-avg queries.

    Parameters
    ----------
    kinds:
        Integer kind codes (``0`` point, ``1`` range sum, ``2`` range avg),
        one per query.
    starts, ends:
        Inclusive item ranges, one per query.  Point queries carry
        ``start == end``.
    """

    __slots__ = ("_kinds", "_starts", "_ends")

    def __init__(self, kinds: np.ndarray, starts: np.ndarray, ends: np.ndarray):
        kinds = np.asarray(kinds, dtype=np.int8)
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        if not (kinds.ndim == starts.ndim == ends.ndim == 1):
            raise EvaluationError("query kinds, starts and ends must be 1-D arrays")
        if not (kinds.size == starts.size == ends.size):
            raise EvaluationError("query kinds, starts and ends must have equal length")
        if kinds.size:
            if kinds.min() < 0 or kinds.max() >= len(QUERY_KINDS):
                raise EvaluationError(f"query kind codes must lie in [0, {len(QUERY_KINDS)})")
            if np.any(starts < 0) or np.any(ends < starts):
                bad = int(np.flatnonzero((starts < 0) | (ends < starts))[0])
                raise EvaluationError(f"invalid query range [{starts[bad]}, {ends[bad]}]")
            if np.any((kinds == _KIND_CODES[POINT]) & (starts != ends)):
                raise EvaluationError("point queries must have start == end")
        self._kinds = kinds
        self._starts = starts
        self._ends = ends

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def kinds(self) -> np.ndarray:
        """Per-query kind codes (indices into :data:`QUERY_KINDS`)."""
        return self._kinds

    @property
    def starts(self) -> np.ndarray:
        """Per-query inclusive range starts (the item itself for point queries)."""
        return self._starts

    @property
    def ends(self) -> np.ndarray:
        """Per-query inclusive range ends."""
        return self._ends

    @property
    def widths(self) -> np.ndarray:
        """Per-query range widths (1 for point queries)."""
        return self._ends - self._starts + 1

    @property
    def max_item(self) -> int:
        """Largest item index any query touches (-1 for an empty batch)."""
        return int(self._ends.max()) if self._ends.size else -1

    def kind_counts(self) -> dict:
        """``{kind name: query count}`` for the batch."""
        counts = np.bincount(self._kinds, minlength=len(QUERY_KINDS))
        return {name: int(counts[code]) for name, code in _KIND_CODES.items()}

    def __len__(self) -> int:
        return int(self._kinds.size)

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}={count}" for name, count in self.kind_counts().items())
        return f"QueryBatch({len(self)} queries: {parts})"

    def as_tuples(self) -> List[tuple]:
        """The queries as ``(kind, start, end)`` tuples, in batch order."""
        return [
            (QUERY_KINDS[k], int(s), int(e))
            for k, s, e in zip(self._kinds, self._starts, self._ends)
        ]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def points(cls, items: Sequence[int]) -> "QueryBatch":
        """A batch of point queries over ``items``."""
        items = np.asarray(items, dtype=np.int64)
        return cls(np.zeros(items.size, dtype=np.int8), items, items)

    @classmethod
    def range_sums(cls, starts: Sequence[int], ends: Sequence[int]) -> "QueryBatch":
        """A batch of range-sum queries over the inclusive ranges ``[starts, ends]``."""
        starts = np.asarray(starts, dtype=np.int64)
        kinds = np.full(starts.size, _KIND_CODES[RANGE_SUM], dtype=np.int8)
        return cls(kinds, starts, np.asarray(ends, dtype=np.int64))

    @classmethod
    def range_avgs(cls, starts: Sequence[int], ends: Sequence[int]) -> "QueryBatch":
        """A batch of range-average queries over the inclusive ranges ``[starts, ends]``."""
        starts = np.asarray(starts, dtype=np.int64)
        kinds = np.full(starts.size, _KIND_CODES[RANGE_AVG], dtype=np.int8)
        return cls(kinds, starts, np.asarray(ends, dtype=np.int64))

    @classmethod
    def from_tuples(cls, queries: Iterable[tuple]) -> "QueryBatch":
        """Build a mixed batch from ``(kind, item)`` / ``(kind, start, end)`` tuples."""
        kinds: List[int] = []
        starts: List[int] = []
        ends: List[int] = []
        for entry in queries:
            kind = entry[0]
            if kind not in _KIND_CODES:
                raise EvaluationError(
                    f"unknown query kind {kind!r}; expected one of {QUERY_KINDS}"
                )
            kinds.append(_KIND_CODES[kind])
            if kind == POINT:
                if len(entry) == 2:
                    start = end = int(entry[1])
                elif len(entry) == 3 and entry[1] == entry[2]:
                    start = end = int(entry[1])
                else:
                    raise EvaluationError(f"point query {entry!r} must name a single item")
            else:
                if len(entry) != 3:
                    raise EvaluationError(f"range query {entry!r} must be (kind, start, end)")
                start, end = int(entry[1]), int(entry[2])
            starts.append(start)
            ends.append(end)
        return cls(
            np.asarray(kinds, dtype=np.int8),
            np.asarray(starts, dtype=np.int64),
            np.asarray(ends, dtype=np.int64),
        )

    @classmethod
    def from_requests(cls, requests: Sequence["QueryRequest"]) -> "QueryBatch":
        """Build a batch from wire :class:`~repro.service.protocol.QueryRequest` s.

        The batch preserves request order, which is what lets
        :func:`~repro.service.protocol.encode_responses` attribute the
        engine's positional answers back to the originating requests (the
        CLI's ``query --json`` relies on exactly this round trip).  Requests
        are already validated at construction, so no re-validation happens
        here.
        """
        return cls(
            np.asarray([_KIND_CODES[request.kind] for request in requests], dtype=np.int8),
            np.asarray([request.start for request in requests], dtype=np.int64),
            np.asarray([request.end for request in requests], dtype=np.int64),
        )

    @classmethod
    def concat(cls, batches: Sequence["QueryBatch"]) -> "QueryBatch":
        """Concatenate several batches, preserving order."""
        if not batches:
            return cls(np.zeros(0, np.int8), np.zeros(0, np.int64), np.zeros(0, np.int64))
        return cls(
            np.concatenate([b.kinds for b in batches]),
            np.concatenate([b.starts for b in batches]),
            np.concatenate([b.ends for b in batches]),
        )
