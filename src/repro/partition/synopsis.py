"""The partitioned synopsis value object: shards behind one read surface.

A :class:`PartitionedSynopsis` composes ``K`` per-shard synopses (of any
kind — histograms, wavelets, a mix in principle) over contiguous
item spans that tile the ordered domain, and implements the full
:class:`~repro.core.synopsis.Synopsis` protocol on top of them:

* point estimates resolve the owning shard in ``O(log K)`` and delegate;
* batched range sums are *federated*: every query is routed to only the
  shards its range overlaps, each shard answers its clipped sub-ranges in
  one vectorised call, and the partial sums are merged back per query —
  ``O(log K)`` routing plus the shards' own batch costs, with shards that no
  query touches doing zero work.

Like every synopsis here it is an immutable value object: construction
parameters live in :class:`~repro.core.spec.SynopsisSpec` and the build
algorithm in :mod:`repro.partition.builder`.  It is one of the fixed synopsis
kinds (``kind = "partitioned"``), so the IO layer, the store and the batch
engine serve it with no special-casing.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

import numpy as np

from ..core._validation import check_item_ranges
from ..core.synopsis import Synopsis, synopsis_class
from ..exceptions import SynopsisError

__all__ = ["PartitionedSynopsis"]

Span = Tuple[int, int]


class PartitionedSynopsis(Synopsis):
    """``K`` per-shard synopses over contiguous spans tiling ``[0, n)``.

    Parameters
    ----------
    spans:
        Inclusive ``(start, end)`` item spans, in increasing order, tiling
        the domain exactly (first starts at 0, each starts right after its
        predecessor, no gaps).
    synopses:
        One :class:`~repro.core.synopsis.Synopsis` per span, each covering
        exactly its span's width (shard-local domain ``[0, width)``).
    """

    kind = "partitioned"

    __slots__ = ("_spans", "_synopses", "_domain_size", "_starts", "_ends")

    def __init__(self, spans: Iterable[Span], synopses: Iterable[Synopsis]):
        span_list = [(int(start), int(end)) for start, end in spans]
        shard_list = list(synopses)
        if not span_list:
            raise SynopsisError("a partitioned synopsis needs at least one shard")
        if len(span_list) != len(shard_list):
            raise SynopsisError(
                f"{len(span_list)} spans but {len(shard_list)} shard synopses"
            )
        expected_start = 0
        for (start, end), shard in zip(span_list, shard_list):
            if start != expected_start or end < start:
                raise SynopsisError(
                    f"shard spans do not tile the domain: expected a span starting "
                    f"at {expected_start}, found [{start}, {end}]"
                )
            if not isinstance(shard, Synopsis):
                raise SynopsisError(
                    f"shards must implement the Synopsis protocol, got "
                    f"{type(shard).__name__}"
                )
            width = end - start + 1
            if shard.domain_size != width:
                raise SynopsisError(
                    f"shard over [{start}, {end}] spans {width} items but its "
                    f"synopsis covers {shard.domain_size}"
                )
            expected_start = end + 1
        self._spans = tuple(span_list)
        self._synopses = tuple(shard_list)
        self._domain_size = expected_start
        self._starts = np.array([s for s, _ in span_list], dtype=np.int64)
        self._ends = np.array([e for _, e in span_list], dtype=np.int64)

    @classmethod
    def from_arrays(
        cls,
        span_starts: np.ndarray,
        span_ends: np.ndarray,
        synopses: Iterable[Synopsis],
    ) -> "PartitionedSynopsis":
        """Build directly from parallel span arrays, without copying them.

        The columnar-storage fast path: ``span_starts``/``span_ends`` are
        adopted by reference when already ``int64`` — read-only memory-mapped
        views included.  Validation is vectorised (spans must tile the domain)
        plus one pass checking each shard covers its span's width.
        """
        starts = np.asarray(span_starts, dtype=np.int64)
        ends = np.asarray(span_ends, dtype=np.int64)
        shard_list = list(synopses)
        if starts.size == 0:
            raise SynopsisError("a partitioned synopsis needs at least one shard")
        if starts.size != ends.size or starts.size != len(shard_list):
            raise SynopsisError(
                f"{starts.size} span starts, {ends.size} span ends but "
                f"{len(shard_list)} shard synopses"
            )
        if (
            int(starts[0]) != 0
            or np.any(ends < starts)
            or not np.array_equal(starts[1:], ends[:-1] + 1)
        ):
            raise SynopsisError(
                "shard spans do not tile the domain: spans must start at 0 and "
                "each must start right after its predecessor ends"
            )
        widths = ends - starts + 1
        for width, shard in zip(widths.tolist(), shard_list):
            if not isinstance(shard, Synopsis):
                raise SynopsisError(
                    f"shards must implement the Synopsis protocol, got "
                    f"{type(shard).__name__}"
                )
            if shard.domain_size != width:
                raise SynopsisError(
                    f"shard spanning {width} items has a synopsis covering "
                    f"{shard.domain_size}"
                )
        instance = object.__new__(cls)
        instance._spans = tuple(zip(starts.tolist(), ends.tolist()))
        instance._synopses = tuple(shard_list)
        instance._domain_size = int(ends[-1]) + 1
        instance._starts = starts
        instance._ends = ends
        return instance

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def domain_size(self) -> int:
        """The size ``n`` of the full ordered domain."""
        return self._domain_size

    @property
    def size(self) -> int:
        """Total space consumed: the sum of the shards' budget units."""
        return int(sum(shard.size for shard in self._synopses))

    @property
    def shard_count(self) -> int:
        """Number of shards ``K``."""
        return len(self._synopses)

    @property
    def spans(self) -> Tuple[Span, ...]:
        """The inclusive item spans, in domain order."""
        return self._spans

    @property
    def shards(self) -> Tuple[Synopsis, ...]:
        """The per-shard synopses, in domain order."""
        return self._synopses

    def shard_of(self, item: int) -> int:
        """Index of the shard owning ``item``."""
        if not 0 <= item < self._domain_size:
            raise SynopsisError(
                f"item {item} outside the domain [0, {self._domain_size})"
            )
        return int(np.searchsorted(self._starts, item, side="right")) - 1

    def __len__(self) -> int:
        return self.shard_count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartitionedSynopsis):
            return NotImplemented
        return self._spans == other._spans and self._synopses == other._synopses

    def __repr__(self) -> str:
        kinds = sorted({type(shard).kind for shard in self._synopses})
        return (
            f"PartitionedSynopsis(shards={self.shard_count}, "
            f"base={'/'.join(kinds)}, n={self._domain_size})"
        )

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate(self, item: int) -> float:
        """Approximate frequency ``ĝ_i``: resolve the shard, delegate locally."""
        index = self.shard_of(item)
        return self._synopses[index].estimate(item - int(self._starts[index]))

    def estimates(self) -> np.ndarray:
        """The full vector ``ĝ``: the shards' estimate vectors, concatenated."""
        return np.concatenate([shard.estimates() for shard in self._synopses])

    def estimate_batch(self, items: np.ndarray) -> np.ndarray:
        """Vectorised point estimates: one shard-local batch per touched shard."""
        items = np.asarray(items, dtype=np.int64)
        if items.size and (items.min() < 0 or items.max() >= self._domain_size):
            bad = items[(items < 0) | (items >= self._domain_size)][0]
            raise SynopsisError(f"item {bad} outside the domain [0, {self._domain_size})")
        result = np.empty(items.size, dtype=float)
        owners = np.searchsorted(self._starts, items, side="right") - 1
        for index in np.unique(owners):
            mask = owners == index
            local = items[mask] - self._starts[index]
            result[mask] = self._synopses[index].estimate_batch(local)
        return result

    def range_sum_estimate(self, start: int, end: int) -> float:
        """Estimated frequency sum over ``[start, end]``, merged across shards."""
        if end < start:
            return 0.0
        result = self.range_sum_estimates(
            np.array([start], dtype=np.int64), np.array([end], dtype=np.int64)
        )
        return float(result[0])

    def range_sum_estimates(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Federated batch range sums: route, clip, answer locally, merge.

        Each query contributes work only to the shards its range overlaps
        (resolved with two ``searchsorted`` calls over the shard starts);
        every shard answers its clipped sub-ranges through its own
        vectorised ``range_sum_estimates``, and the partial sums are
        accumulated per query.  Shards no query touches are never called.
        """
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        check_item_ranges(starts, ends, self._domain_size)
        if starts.size == 0:
            return np.zeros(0, dtype=float)
        totals = np.zeros(starts.size, dtype=float)
        first = np.searchsorted(self._starts, starts, side="right") - 1
        last = np.searchsorted(self._starts, ends, side="right") - 1
        for index in range(self.shard_count):
            mask = (first <= index) & (last >= index)
            if not np.any(mask):
                continue
            shard_start = self._starts[index]
            local_starts = np.maximum(starts[mask], shard_start) - shard_start
            local_ends = np.minimum(ends[mask], self._ends[index]) - shard_start
            totals[mask] += self._synopses[index].range_sum_estimates(
                local_starts, local_ends
            )
        return totals

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation; shards serialise self-describing."""
        from ..io import synopsis_to_dict

        return {
            "domain_size": self._domain_size,
            "shards": [
                {"start": start, "end": end, "synopsis": synopsis_to_dict(shard)}
                for (start, end), shard in zip(self._spans, self._synopses)
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PartitionedSynopsis":
        """Inverse of :meth:`to_dict` (each shard's payload names its kind)."""
        from ..io import synopsis_from_dict

        shards = payload.get("shards")
        if not isinstance(shards, list) or not shards:
            raise SynopsisError("a partitioned payload needs a non-empty 'shards' list")
        spans: List[Span] = []
        synopses: List[Synopsis] = []
        for entry in shards:
            spans.append((int(entry["start"]), int(entry["end"])))
            synopses.append(synopsis_from_dict(entry["synopsis"]))
        built = cls(spans, synopses)
        declared = payload.get("domain_size")
        if declared is not None and int(declared) != built.domain_size:
            raise SynopsisError(
                f"payload declares domain_size {declared} but the shards tile "
                f"{built.domain_size} items"
            )
        return built

    def to_columns(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """Span columns plus namespaced per-shard columns.

        Each shard contributes its own columns under a ``shard{i}/`` prefix,
        and the meta block records every shard's kind, meta and column names
        so loading regroups and dispatches without inspecting types.
        """
        columns: Dict[str, np.ndarray] = {"span_starts": self._starts, "span_ends": self._ends}
        shard_meta: List[Dict[str, Any]] = []
        for i, shard in enumerate(self._synopses):
            meta_i, columns_i = shard.to_columns()
            shard_meta.append({"kind": shard.kind, "meta": meta_i, "columns": list(columns_i)})
            for name, array in columns_i.items():
                columns[f"shard{i}/{name}"] = array
        meta = {"domain_size": self._domain_size, "shards": shard_meta}
        return meta, columns

    @classmethod
    def from_columns(
        cls, meta: Dict[str, Any], columns: Dict[str, np.ndarray]
    ) -> "PartitionedSynopsis":
        """Inverse of :meth:`to_columns`, through :meth:`from_arrays` (no copies)."""
        shards: List[Synopsis] = []
        for i, entry in enumerate(meta["shards"]):
            local = {name: columns[f"shard{i}/{name}"] for name in entry["columns"]}
            shards.append(synopsis_class(entry["kind"]).from_columns(entry["meta"], local))
        built = cls.from_arrays(columns["span_starts"], columns["span_ends"], shards)
        declared = meta.get("domain_size")
        if declared is not None and int(declared) != built.domain_size:
            raise SynopsisError(
                f"pack entry declares domain_size {declared} but the shards tile "
                f"{built.domain_size} items"
            )
        return built
