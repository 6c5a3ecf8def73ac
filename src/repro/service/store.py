"""Content-addressed synopsis store: build once, serve forever.

A synopsis is fully determined by the data it summarises and the build
specification (:class:`~repro.core.spec.SynopsisSpec`): kind, metric, sanity
constant, budget, construction method, kernel, slack, SSE variant, workload.
:class:`SynopsisStore` therefore keys every built synopsis by the SHA-256
digest of

* a **dataset fingerprint** — the digest of the model's canonical JSON
  interchange form (or of the raw marginal arrays for precomputed
  distributions), and
* the spec's **canonical build configuration**
  (:meth:`SynopsisSpec.canonical`, the only source of store keys),

and caches the result in memory and, optionally, on disk in one binary
columnar pack (:mod:`repro.io.binary_format`), whose loads are zero-copy
views into a memory-mapped pack file.  Repeat builds — the common case for a
serving tier that answers millions of queries against a handful of synopsis
configurations — are cache hits that skip the dynamic program entirely.
The JSON interchange format (:mod:`repro.io`) stays the way to exchange a
single synopsis; it is not a store format.

Cache invalidation is automatic: any change to the data or the spec changes
the key, and stale entries are simply never looked up again.  Knobs a build
ignores drop out of the canonical form, so they cannot fragment the cache;
kernel choice *is* part of the key even though every kernel returns an
identical optimum, keeping the store byte-reproducible per configuration and
kernel ablations cache-friendly.
"""

from __future__ import annotations

import hashlib
import json
import time
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .._malloc import map_large_arrays
from ..core.builders import build
from ..core.spec import SynopsisSpec
from ..core.synopsis import Synopsis
from ..exceptions import SynopsisError
from ..io import model_to_dict
from ..io.binary_format import SynopsisPack
from ..models.base import ProbabilisticModel
from ..models.frequency import FrequencyDistributions
from ..telemetry import MetricsRegistry, span

__all__ = ["SynopsisStore", "StoreStats", "fingerprint_data"]


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


class _FingerprintCache:
    """Weak-ref memo of ``fingerprint_data`` results, keyed by object identity.

    ``get_or_build`` fingerprints its dataset on *every* call, and hashing a
    large model is O(n) — pure overhead for the hot-loop case where the same
    in-memory object is looked up thousands of times.  The cache holds one
    entry per live object; a weakref callback evicts the entry when the
    object is collected (guarding against id reuse by checking the stored
    ref still points at the queried object).  Objects that don't support
    weak references simply aren't cached.

    Correctness assumption, same as the store's: datasets are not mutated in
    place after being fingerprinted (models are value objects; mutating a
    raw frequency vector under the store's feet was already undefined).
    """

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[weakref.ref, str]] = {}

    def get(self, data) -> Optional[str]:
        entry = self._entries.get(id(data))
        if entry is not None and entry[0]() is data:
            return entry[1]
        return None

    def put(self, data, digest: str) -> None:
        key = id(data)

        def evict(ref, *, key=key, entries=self._entries):
            if key in entries and entries[key][0] is ref:
                del entries[key]

        try:
            ref = weakref.ref(data, evict)
        except TypeError:
            return
        self._entries[key] = (ref, digest)

    def __len__(self) -> int:
        return len(self._entries)


_FINGERPRINTS = _FingerprintCache()


def fingerprint_data(data) -> str:
    """Stable content fingerprint of a dataset.

    Probabilistic models hash their canonical JSON interchange form, so a
    model and its round-tripped copy share a fingerprint.  Precomputed
    :class:`FrequencyDistributions` hash the value grid and probability
    matrix bytes; plain frequency vectors hash their float64 bytes.

    Results are memoised per live object (weak-ref cache), so repeat lookups
    against the same in-memory dataset skip the O(n) hash; callers that
    manage their own fingerprints can bypass hashing entirely via the
    ``fingerprint=`` pass-through on :meth:`SynopsisStore.get_or_build`.
    """
    cached = _FINGERPRINTS.get(data)
    if cached is not None:
        return cached
    if isinstance(data, ProbabilisticModel):
        canonical = json.dumps(model_to_dict(data), sort_keys=True, separators=(",", ":"))
        digest = _digest(canonical.encode())
    elif isinstance(data, FrequencyDistributions):
        # A C-contiguous float64 array hashes through the buffer protocol:
        # the same bytes as ``.tobytes()``, without copying the matrix.
        hasher = hashlib.sha256()
        hasher.update(np.ascontiguousarray(data.values, dtype=float))
        hasher.update(np.ascontiguousarray(data.probabilities, dtype=float))
        digest = hasher.hexdigest()
    else:
        array = np.asarray(data, dtype=float)
        if array.ndim != 1:
            raise SynopsisError(f"cannot fingerprint data of type {type(data).__name__}")
        digest = _digest(np.ascontiguousarray(array).tobytes())
    _FINGERPRINTS.put(data, digest)
    return digest


class StoreStats:
    """Read-through view over the store's telemetry instruments.

    The ``repro_store_*`` metric families in the store's
    :class:`~repro.telemetry.MetricsRegistry` are the canonical counters;
    this class keeps the pre-telemetry surface (attribute reads,
    ``as_dict``) intact on top of them, so ``query --stats`` output and
    every existing caller are unchanged while the daemon's ``metrics`` op
    exposes the very same numbers.  The store records into it whether or
    not telemetry is enabled: its accounting is load-bearing (benchmarks,
    ``--stats``).

    Beyond the hit/miss counts, the store accumulates where wall-clock time
    goes — ``build_seconds`` inside the DP builder on misses,
    ``disk_load_seconds`` loading disk hits.  Disk hits keep the ``backend``
    label they were counted under when the store had two disk formats
    (``disk_hits_by_backend``); the pack is the only one now, so the label
    is always ``columnar``, and the ``stats`` reply and the scrape keep
    their shape.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._builds = reg.counter(
            "repro_store_builds_total", "Cache-miss synopsis builds (DP runs)"
        )
        self._memory_hits = reg.counter(
            "repro_store_memory_hits_total", "Lookups served from resident memory"
        )
        self._disk_hits = reg.counter(
            "repro_store_disk_hits_total",
            "Lookups served from the disk layer, by backend",
            labelnames=("backend",),
        )
        self._puts = reg.counter(
            "repro_store_puts_total", "Entries inserted into the store"
        )
        self._evictions = reg.counter(
            "repro_store_evictions_total", "LRU evictions from the memory layer"
        )
        self._build_seconds = reg.counter(
            "repro_store_build_seconds_total",
            "Wall time spent inside cache-miss builds",
        )
        self._disk_load_seconds = reg.counter(
            "repro_store_disk_load_seconds_total",
            "Wall time spent deserialising disk hits",
        )

    # -- read-through attribute surface (unchanged from the dataclass) ---
    @property
    def builds(self) -> int:
        return int(self._builds.value)

    @property
    def memory_hits(self) -> int:
        return int(self._memory_hits.value)

    @property
    def disk_hits(self) -> int:
        return sum(self.disk_hits_by_backend.values())

    @property
    def disk_hits_by_backend(self) -> Dict[str, int]:
        return {
            labels["backend"]: int(child.value)  # type: ignore[union-attr]
            for labels, child in self._disk_hits.samples()
        }

    @property
    def puts(self) -> int:
        return int(self._puts.value)

    @property
    def evictions(self) -> int:
        return int(self._evictions.value)

    @property
    def build_seconds(self) -> float:
        return self._build_seconds.value

    @property
    def disk_load_seconds(self) -> float:
        return self._disk_load_seconds.value

    @property
    def lookups(self) -> int:
        """Total ``get_or_build`` calls served."""
        return self.builds + self.memory_hits + self.disk_hits

    # -- recording (the store's single mutation surface) -----------------
    def record_build(self, seconds: float) -> None:
        """Record one cache-miss build and its wall time."""
        self._builds.inc()
        self._build_seconds.inc(seconds)

    def record_memory_hit(self) -> None:
        self._memory_hits.inc()

    def count_disk_hit(self) -> None:
        """Record one disk hit, served by the columnar pack."""
        self._disk_hits.labels(backend="columnar").inc()

    def add_disk_load_seconds(self, seconds: float) -> None:
        self._disk_load_seconds.inc(seconds)

    def record_put(self) -> None:
        self._puts.inc()

    def record_eviction(self) -> None:
        self._evictions.inc()

    def as_dict(self) -> Dict[str, object]:
        return {
            "lookups": self.lookups,
            "builds": self.builds,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "puts": self.puts,
            "evictions": self.evictions,
            "build_seconds": self.build_seconds,
            "disk_load_seconds": self.disk_load_seconds,
            "disk_hits_by_backend": dict(self.disk_hits_by_backend),
        }

    def __repr__(self) -> str:
        return f"StoreStats({self.as_dict()!r})"


class SynopsisStore:
    """In-memory + on-disk cache of built synopses, keyed by content.

    Parameters
    ----------
    directory:
        Optional directory for the on-disk layer, one columnar pack
        (:class:`~repro.io.binary_format.SynopsisPack`).  When given, every
        build is persisted and survives the process; a fresh store over the
        same directory serves those entries as disk hits, whose arrays are
        read-only views into the memory-mapped pack.  Without a directory
        the store is memory-only.  A directory that holds ``<key>.json``
        entries of the retired JSON store and no pack is refused, rather
        than missing on every lookup.
    format:
        The on-disk format.  ``"columnar"`` is the only one; any other
        value is an error.
    max_memory_entries:
        Optional cap on the in-memory layer.  When set, the least recently
        *used* entry (hit, loaded from disk, or inserted) is evicted once the
        cap is exceeded, and every eviction is counted in
        :attr:`StoreStats.evictions`.  Disk entries are never evicted — an
        evicted synopsis with a disk layer simply degrades to a disk hit.
        ``None`` (the default) keeps residency unbounded.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        *,
        format: str = "columnar",
        max_memory_entries: Optional[int] = None,
    ):
        if format != "columnar":
            raise SynopsisError(
                f"unknown store format {format!r}; stores persist as 'columnar' packs"
            )
        if max_memory_entries is not None and int(max_memory_entries) < 1:
            raise SynopsisError(
                f"max_memory_entries must be at least 1, got {max_memory_entries}"
            )
        # A process that opens a store builds in it: keep the builds' large
        # arrays out of the heap gaps that make its peak memory vary.
        map_large_arrays()
        # Insertion/use order doubles as the LRU order: hits re-append.
        self._memory: "OrderedDict[str, Synopsis]" = OrderedDict()
        self._max_memory_entries = (
            None if max_memory_entries is None else int(max_memory_entries)
        )
        self._pack: Optional[SynopsisPack] = None
        if directory is not None:
            directory = Path(directory)
            # Keys do not depend on the format, but a pack cannot read JSON
            # entries: every lookup would miss and every entry would rebuild.
            if not SynopsisPack.present(directory) and any(directory.glob("*.json")):
                raise SynopsisError(
                    f"{directory} holds a JSON store and no columnar pack; move "
                    "its <key>.json entries into a pack first (README: "
                    "'Migrating a JSON store')"
                )
            self._pack = SynopsisPack(directory)
        #: Per-store registry holding the canonical ``repro_store_*``
        #: counters; the daemon merges it into its ``metrics`` exposition.
        self.metrics = MetricsRegistry()
        self.stats = StoreStats(self.metrics)

    def _remember(self, key: str, synopsis: Synopsis) -> None:
        """Insert/refresh one memory entry, evicting beyond the LRU cap."""
        self._memory[key] = synopsis
        self._memory.move_to_end(key)
        if self._max_memory_entries is not None:
            while len(self._memory) > self._max_memory_entries:
                self._memory.popitem(last=False)
                self.stats.record_eviction()

    # ------------------------------------------------------------------
    # Cache access
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Synopsis]:
        """The cached synopsis under ``key``, or ``None`` (no hit counting).

        Disk loads still accrue into ``stats.disk_load_seconds`` so timing
        attribution survives callers that bypass ``get_or_build``.
        """
        synopsis = self._memory.get(key)
        if synopsis is not None:
            self._memory.move_to_end(key)  # a hit is a use, in LRU terms
            return synopsis
        if self._pack is not None:
            start = time.perf_counter()
            with span("store.disk_load"):
                loaded = self._pack.get(key)
            if loaded is not None:
                self.stats.add_disk_load_seconds(time.perf_counter() - start)
                synopsis, _ = loaded
                self._remember(key, synopsis)
                return synopsis
        return None

    def put(self, key: str, synopsis: Synopsis, config: Optional[Dict] = None) -> None:
        """Insert a synopsis under an explicit key (memory and, if set, disk)."""
        self._remember(key, synopsis)
        self.stats.record_put()
        if self._pack is not None:
            self._pack.put(key, synopsis, dict(config or {}))

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        return self._pack is not None and key in self._pack

    def __len__(self) -> int:
        keys = set(self._memory)
        if self._pack is not None:
            keys.update(self._pack.keys())
        return len(keys)

    def clear_memory(self) -> None:
        """Drop the in-memory layer (disk entries, if any, survive)."""
        self._memory.clear()

    def clear_disk(self) -> None:
        """Drop the on-disk layer (in-memory entries survive).

        The companion of :meth:`clear_memory` for operational cache resets:
        the pack is truncated back to its bare headers (appended payload
        bytes are reclaimed, the store stays open-able), so a subsequent miss
        rebuilds and repersists.  A memory-only store is a no-op.
        """
        if self._pack is not None:
            self._pack.clear()

    # ------------------------------------------------------------------
    # The front door
    # ------------------------------------------------------------------
    def _lookup(self, key: str) -> Optional[Synopsis]:
        """One keyed lookup with stats attribution (memory, then disk)."""
        if key in self._memory:
            self.stats.record_memory_hit()
            self._memory.move_to_end(key)
            return self._memory[key]
        cached = self.get(key)
        if cached is not None:
            self.stats.count_disk_hit()
        return cached

    def get_or_build(
        self, data, spec: SynopsisSpec, *, fingerprint: Optional[str] = None
    ) -> Union[Synopsis, List[Synopsis]]:
        """The cached synopsis (or sweep of synopses) for a spec over ``data``.

        Hits (memory or disk) skip the build entirely; misses build, persist
        and return, and ``stats`` records which path served each call.  Every
        budget of the spec is addressed independently —
        ``spec.store_key(fingerprint, budget)`` — so a sweep mixes hits and
        misses freely; if *any* budget misses, the missing budgets are built
        in one DP run and each result cached under its own per-budget key.
        ``fingerprint`` lets callers that precomputed
        :func:`fingerprint_data` skip hashing the dataset entirely.
        """
        if not isinstance(spec, SynopsisSpec):
            raise SynopsisError(
                f"get_or_build takes a SynopsisSpec, not {type(spec).__name__}: "
                "pass SynopsisSpec(kind=..., budget=..., metric=...)"
            )
        if fingerprint is None:
            fingerprint = fingerprint_data(data)
        with span("store.get_or_build", kind=spec.kind) as trace:
            keys = {budget: spec.store_key(fingerprint, budget) for budget in spec.budgets}
            found: Dict[int, Synopsis] = {}
            for budget, key in keys.items():
                cached = self._lookup(key)
                if cached is not None:
                    found[budget] = cached
            missing = [budget for budget in spec.budgets if budget not in found]
            trace.set(hits=len(found), misses=len(missing))
            if missing:
                # Build only the missing budgets (one DP run sized to their
                # maximum); cached budgets keep being served from the cache.
                start = time.perf_counter()
                with span("store.build", budgets=len(missing)):
                    built = build(data, spec.with_budget(tuple(missing)))
                self.stats.record_build(time.perf_counter() - start)
                for budget, synopsis in zip(missing, built):
                    self.put(keys[budget], synopsis, spec.canonical(budget))
                    found[budget] = synopsis
            results = [found[budget] for budget in spec.budgets]
            return results if spec.is_sweep else results[0]
