"""Declarative build specifications: the typed front door to the package.

A :class:`SynopsisSpec` is a frozen, validated value object describing *what*
synopsis to build — kind, budget (or budget sweep), error metric, construction
method, DP kernel, approximation slack, SSE variant and optional query
workload — without saying anything about *which data* to build it over.  One
spec therefore travels unchanged through every layer:

* ``build(data, spec)`` constructs the synopsis;
* ``SynopsisStore`` derives its content-address cache keys from
  :meth:`SynopsisSpec.canonical` (the **only** source of store keys);
* the CLI and the experiment runners assemble a spec once and hand it on;
* :meth:`to_dict` / :meth:`from_dict` / :meth:`to_json` / :meth:`from_json`
  round-trip the spec exactly, so specs can be shipped, logged and replayed.

Validation happens *up front*, at construction: unknown kinds, empty budget
sweeps, non-integral or negative budgets, non-positive ``epsilon`` or sanity
constants all raise :class:`~repro.exceptions.SynopsisError` before any
dynamic program runs.

The canonical form (:meth:`canonical`) drops every knob the described build
ignores — ``kernel`` for approximate histograms, ``epsilon`` for optimal
ones, ``sanity`` for non-relative metrics, all histogram machinery for
wavelets — so equivalent configurations share one cache key and the on-disk
keys of earlier releases are preserved byte-for-byte (pinned by the golden
tests in ``tests/test_spec.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import (
    BudgetClampWarning,
    BudgetSweepWarning,
    SynopsisError,
    warn_at_caller,
)
from .metrics import DEFAULT_SANITY, ErrorMetric, MetricSpec
from .synopsis import synopsis_kinds
from .workload import QueryWorkload

__all__ = [
    "SynopsisSpec",
    "PartitionSpec",
    "HISTOGRAM_METHODS",
    "PARTITION_STRATEGIES",
    "ALLOCATION_MODES",
    "DEFAULT_EPSILON",
    "DEFAULT_KERNEL",
    "DEFAULT_SSE_VARIANT",
]

HISTOGRAM_METHODS: Tuple[str, ...] = ("optimal", "approximate")

#: Domain-splitting strategies of :class:`PartitionSpec` (implemented by
#: :mod:`repro.partition.partitioner`).
PARTITION_STRATEGIES: Tuple[str, ...] = ("equal_width", "equal_mass", "explicit")

#: Cross-shard budget-allocation modes of :class:`PartitionSpec`.
ALLOCATION_MODES: Tuple[str, ...] = ("exact", "greedy")

#: Synopsis kinds that may serve as the per-shard base of a partitioned
#: build.  ``"partitioned"`` itself is deliberately absent: partitions do
#: not nest.
PARTITION_BASE_KINDS: Tuple[str, ...] = ("histogram", "wavelet")

DEFAULT_EPSILON = 0.1
DEFAULT_KERNEL = "auto"
DEFAULT_SSE_VARIANT = "fixed"

_SSE_VARIANTS: Tuple[str, ...] = ("fixed", "paper")

BudgetLike = Union[int, Sequence[int]]
MetricLike = Union[str, ErrorMetric, MetricSpec]
WorkloadLike = Union[QueryWorkload, Sequence[float], np.ndarray, None]


def _coerce_budget(value: Any) -> int:
    """Coerce one budget entry, rejecting non-integral values loudly.

    A float budget is almost always a bug (``n / 4`` in the caller); silently
    truncating it would hand back a smaller synopsis than asked for.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise SynopsisError(f"the budget must be an integer, got {value!r}")


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def canonical_store_key(
    fingerprint: str, config: Mapping[str, Any], workload_digest: Optional[str] = None
) -> str:
    """The store-key digest of one (dataset, canonical config, workload) triple.

    This is the single definition of the on-disk key format:
    ``sha256`` of the compact sorted JSON of ``{"data", "config"[, "workload"]}``.
    :meth:`SynopsisSpec.store_key` is a thin caller of this function.
    """
    payload: Dict[str, Any] = {"data": fingerprint, "config": dict(config)}
    if workload_digest is not None:
        payload["workload"] = workload_digest
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return _digest(canonical.encode())


def workload_digest_of(workload: WorkloadLike) -> Optional[str]:
    """Stable digest of a query workload's weight vector (``None`` stays ``None``)."""
    if workload is None:
        return None
    weights = workload.weights if isinstance(workload, QueryWorkload) else workload
    return _digest(np.ascontiguousarray(np.asarray(weights, dtype=float)).tobytes())


def _coerce_int(value: Any, what: str) -> int:
    """Coerce one integral parameter, rejecting floats and booleans loudly."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise SynopsisError(f"{what} must be an integer, got {value!r}")


@dataclasses.dataclass(frozen=True)
class PartitionSpec:
    """How a partitioned synopsis splits its domain and its budget.

    Parameters
    ----------
    shards:
        Number of contiguous shards ``K`` the ordered domain is split into.
    strategy:
        ``"equal_width"`` (equal item counts), ``"equal_mass"`` (balanced
        expected frequency mass) or ``"explicit"`` (caller-given ``cuts``).
    cuts:
        Explicit shard start indices (strictly increasing, excluding 0),
        required by — and only meaningful for — the explicit strategy.
    allocation:
        How the global budget is split across the shards: ``"exact"``
        (min-plus DP over the per-shard error-vs-budget curves, provably
        optimal) or ``"greedy"`` (steepest-descent heuristic, kept for
        comparison).
    base:
        The per-shard synopsis kind (``"histogram"`` or ``"wavelet"``).
    """

    shards: int
    strategy: str = "equal_width"
    cuts: Optional[Tuple[int, ...]] = None
    allocation: str = "exact"
    base: str = "histogram"

    def __post_init__(self) -> None:
        count = _coerce_int(self.shards, "the shard count")
        if count < 1:
            raise SynopsisError(f"the shard count must be at least 1, got {count}")
        object.__setattr__(self, "shards", count)
        if self.strategy not in PARTITION_STRATEGIES:
            raise SynopsisError(
                f"unknown partition strategy {self.strategy!r}; "
                f"expected one of {PARTITION_STRATEGIES}"
            )
        if self.strategy == "explicit":
            if self.cuts is None:
                raise SynopsisError(
                    "the explicit strategy needs cuts=(...): the start index of "
                    "every shard after the first"
                )
            cuts = tuple(_coerce_int(c, "a shard cut") for c in self.cuts)
            if len(cuts) != count - 1:
                raise SynopsisError(
                    f"{count} shards need exactly {count - 1} cuts, got {len(cuts)}"
                )
            if any(c <= 0 for c in cuts) or any(b <= a for a, b in zip(cuts, cuts[1:])):
                raise SynopsisError(
                    "cuts must be strictly increasing positive item indices"
                )
            object.__setattr__(self, "cuts", cuts)
        elif self.cuts is not None:
            raise SynopsisError(
                f"cuts only apply to the explicit strategy, not {self.strategy!r}"
            )
        if self.allocation not in ALLOCATION_MODES:
            raise SynopsisError(
                f"unknown allocation mode {self.allocation!r}; "
                f"expected one of {ALLOCATION_MODES}"
            )
        if self.base not in PARTITION_BASE_KINDS:
            raise SynopsisError(
                f"the per-shard base kind must be one of {PARTITION_BASE_KINDS}, "
                f"got {self.base!r} (partitions do not nest)"
            )

    # ------------------------------------------------------------------
    # Canonical form and serialisation
    # ------------------------------------------------------------------
    def canonical(self) -> Dict[str, Any]:
        """The cache-key view of the partition block."""
        config: Dict[str, Any] = {
            "shards": self.shards,
            "strategy": self.strategy,
            "allocation": self.allocation,
            "base": self.base,
        }
        if self.cuts is not None:
            config["cuts"] = list(self.cuts)
        return config

    def to_dict(self) -> Dict[str, Any]:
        """Complete JSON-friendly representation (inverse of :meth:`from_dict`)."""
        return self.canonical()

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PartitionSpec":
        """Build a partition block from :meth:`to_dict` output (unknown keys are errors)."""
        if not isinstance(payload, Mapping):
            raise SynopsisError(
                f"a partition block must be a mapping, got {type(payload).__name__}"
            )
        known = {"shards", "strategy", "cuts", "allocation", "base"}
        unknown = set(payload) - known
        if unknown:
            raise SynopsisError(
                f"unknown partition field(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        if "shards" not in payload:
            raise SynopsisError("a partition block needs a 'shards' field")
        cuts = payload.get("cuts")
        if isinstance(cuts, list):
            cuts = tuple(cuts)
        return cls(
            shards=payload["shards"],
            strategy=payload.get("strategy", "equal_width"),
            cuts=cuts,
            allocation=payload.get("allocation", "exact"),
            base=payload.get("base", "histogram"),
        )


@dataclasses.dataclass(frozen=True)
class SynopsisSpec:
    """A complete, validated description of one synopsis build.

    Parameters
    ----------
    kind:
        Registered synopsis kind: ``"histogram"`` or ``"wavelet"``.
    budget:
        The space budget — bucket count for histograms, retained-coefficient
        count for wavelets.  A sequence declares a *budget sweep*: ``build``
        returns one synopsis per budget, served by a single DP run.
    metric:
        Error objective; an :class:`ErrorMetric`, its lower-case name, or a
        full :class:`MetricSpec` (which then carries its own sanity constant).
    sanity:
        Sanity constant ``c`` for the relative metrics (ignored, but still
        validated positive, for the others).
    method:
        Histograms only: ``"optimal"`` (exact DP) or ``"approximate"``
        (the ``(1 + epsilon)`` scheme; cumulative metrics only).
    kernel:
        Optimal histograms only: DP kernel name, ``"auto"`` by default.
    epsilon:
        Approximation slack for ``method="approximate"``.
    sse_variant:
        ``"fixed"`` (Section 2.3 objective) or ``"paper"`` (Eq. 5); only
        meaningful for the SSE metric.
    workload:
        Optional per-item query weights (:class:`QueryWorkload` or a plain
        weight sequence).  Part of the spec because a workload-aware build is
        a genuinely different synopsis (and a different cache key).
    partition:
        Partitioned builds only (``kind="partitioned"``): the
        :class:`PartitionSpec` block describing how the domain is sharded and
        the global budget allocated.  The remaining knobs (metric, kernel,
        workload, ...) then describe the nested per-shard build, whose spec
        :meth:`shard_spec` derives.
    """

    kind: str = "histogram"
    budget: Union[int, Tuple[int, ...]] = 0
    metric: MetricSpec = dataclasses.field(
        default_factory=lambda: MetricSpec(ErrorMetric.SSE)
    )
    sanity: dataclasses.InitVar[float] = DEFAULT_SANITY
    method: str = "optimal"
    kernel: str = DEFAULT_KERNEL
    epsilon: float = DEFAULT_EPSILON
    sse_variant: str = DEFAULT_SSE_VARIANT
    workload: Optional[QueryWorkload] = None
    partition: Optional[PartitionSpec] = None

    # ------------------------------------------------------------------
    # Validation / normalisation
    # ------------------------------------------------------------------
    def __post_init__(self, sanity: float) -> None:
        kinds = synopsis_kinds()
        if self.kind not in kinds:
            raise SynopsisError(
                f"unknown synopsis kind {self.kind!r}; expected one of {kinds}"
            )

        # The partition block pairs exactly with kind="partitioned" (a plain
        # mapping is coerced so specs deserialise without special-casing).
        if self.partition is not None and not isinstance(self.partition, PartitionSpec):
            object.__setattr__(
                self,
                "partition",
                PartitionSpec.from_dict(self.partition),  # type: ignore[unreachable]
            )
        if self.kind == "partitioned" and self.partition is None:
            raise SynopsisError(
                "a partitioned spec needs a partition=PartitionSpec(...) block"
            )
        if self.kind != "partitioned" and self.partition is not None:
            raise SynopsisError(
                f"a partition block only applies to kind='partitioned', not {self.kind!r}"
            )

        # Budgets: a scalar stays a scalar (build returns one synopsis), a
        # sequence becomes a tuple (build returns a list).  An empty sweep is
        # always a caller bug — fail here, before any data is touched.
        if np.isscalar(self.budget) or isinstance(self.budget, (int, np.integer)):
            object.__setattr__(self, "budget", _coerce_budget(self.budget))
        else:
            try:
                entries = tuple(_coerce_budget(b) for b in self.budget)  # type: ignore
            except TypeError:
                raise SynopsisError(
                    f"the budget must be an integer or a sequence of integers, "
                    f"got {self.budget!r}"
                ) from None
            if not entries:
                raise SynopsisError(
                    "an empty budget sweep builds nothing; give at least one budget"
                )
            normalised = tuple(sorted(set(entries)))
            if normalised != entries:
                warn_at_caller(
                    BudgetSweepWarning(
                        f"budget sweeps are served sorted and duplicate-free; "
                        f"normalised {list(entries)} to {list(normalised)}"
                    )
                )
                entries = normalised
            object.__setattr__(self, "budget", entries)
        minimum = 1 if self.base_kind == "histogram" else 0
        for entry in self.budgets:
            if entry < minimum:
                raise SynopsisError(
                    f"the {self.kind} budget must be at least {minimum}, got {entry}"
                )
        partition = self.partition
        if partition is not None and partition.base == "histogram":
            if min(self.budgets) < partition.shards:
                raise SynopsisError(
                    f"a {partition.shards}-shard histogram partition needs a "
                    f"global budget of at least {partition.shards} "
                    f"(one bucket per shard), got {min(self.budgets)}"
                )

        if sanity <= 0:
            raise SynopsisError("the sanity constant c must be positive")
        metric = MetricSpec.of(self.metric, sanity)
        if metric.sanity <= 0:
            raise SynopsisError("the sanity constant c must be positive")
        object.__setattr__(self, "metric", metric)

        if self.method not in HISTOGRAM_METHODS:
            raise SynopsisError(
                f"unknown construction method {self.method!r}; "
                f"expected one of {HISTOGRAM_METHODS}"
            )
        if self.kind == "histogram" and self.method == "approximate" and metric.maximum:
            raise SynopsisError(
                "the approximate construction applies to cumulative error "
                f"objectives only, not {metric.describe()}"
            )
        if self.sse_variant not in _SSE_VARIANTS:
            raise SynopsisError(
                f"unknown sse_variant {self.sse_variant!r}; expected one of {_SSE_VARIANTS}"
            )
        if self.kind == "partitioned":
            # The allocator's optimality proof rests on exact per-shard
            # error-vs-budget curves, which only the optimal DP provides; and
            # the "paper" SSE variant needs the full tuple-pdf covariance
            # structure, which cannot be sliced into independent shards.
            if self.method != "optimal":
                raise SynopsisError(
                    "partitioned builds need exact per-shard error-vs-budget "
                    "curves; method='approximate' is not supported"
                )
            if self.sse_variant != DEFAULT_SSE_VARIANT:
                raise SynopsisError(
                    "partitioned builds do not support sse_variant='paper': the "
                    "tuple-pdf covariance structure cannot be sliced per shard"
                )
        if not (isinstance(self.epsilon, (int, float)) and float(self.epsilon) > 0):
            raise SynopsisError(f"epsilon must be positive, got {self.epsilon!r}")
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if not isinstance(self.kernel, str) or not self.kernel:
            raise SynopsisError(f"the kernel must be a non-empty name, got {self.kernel!r}")

        if self.workload is not None and not isinstance(self.workload, QueryWorkload):
            object.__setattr__(self, "workload", QueryWorkload(self.workload))

        if self.base_kind != "histogram":
            # Histogram-only knobs are meaningless elsewhere; normalise them to
            # their defaults so two specs that build the same synopsis compare
            # (and hash, and canonicalise) equal.  For partitioned builds the
            # knobs describe the per-shard base, so a wavelet-base partition
            # normalises exactly like a plain wavelet.
            object.__setattr__(self, "method", "optimal")
            object.__setattr__(self, "kernel", DEFAULT_KERNEL)
            object.__setattr__(self, "epsilon", DEFAULT_EPSILON)
            object.__setattr__(self, "sse_variant", DEFAULT_SSE_VARIANT)

    # ------------------------------------------------------------------
    # Kind views
    # ------------------------------------------------------------------
    @property
    def base_kind(self) -> str:
        """The kind actually constructed per domain slice.

        Equal to :attr:`kind` for plain builds; for partitioned builds the
        per-shard base kind (``partition.base``).
        """
        return self.partition.base if self.partition is not None else self.kind

    def shard_spec(
        self, budget: BudgetLike, workload: WorkloadLike = None
    ) -> "SynopsisSpec":
        """The nested per-shard build spec of a partitioned spec.

        Carries every base-kind knob of this spec (metric, kernel, SSE
        variant) over to ``kind=partition.base`` with the given per-shard
        budget (or sweep) and optional shard-restricted workload weights.
        """
        partition = self.partition
        if partition is None:
            raise SynopsisError("shard_spec only applies to partitioned specs")
        return SynopsisSpec(
            kind=partition.base,
            budget=budget,
            metric=self.metric,
            method="optimal",
            kernel=self.kernel,
            sse_variant=self.sse_variant,
            workload=workload,
        )

    # ------------------------------------------------------------------
    # Budget views
    # ------------------------------------------------------------------
    @property
    def is_sweep(self) -> bool:
        """Whether the spec declares a budget sweep (list in, list out)."""
        return isinstance(self.budget, tuple)

    @property
    def budgets(self) -> Tuple[int, ...]:
        """All requested budgets as a tuple (length one for a single build)."""
        if isinstance(self.budget, tuple):
            return self.budget
        return (self.budget,)

    def with_budget(self, budget: BudgetLike) -> "SynopsisSpec":
        """The same spec with a different budget (or sweep)."""
        if isinstance(budget, (int, np.integer)):
            return dataclasses.replace(self, budget=_coerce_budget(budget))
        return dataclasses.replace(self, budget=tuple(_coerce_budget(b) for b in budget))

    # ------------------------------------------------------------------
    # Equality / hashing
    # ------------------------------------------------------------------
    def __hash__(self) -> int:
        # QueryWorkload is not hashable (it wraps an array); hash its digest.
        return hash(
            (
                self.kind,
                self.budget,
                self.metric,
                self.method,
                self.kernel,
                self.epsilon,
                self.sse_variant,
                self.workload_digest,
                self.partition,
            )
        )

    # ------------------------------------------------------------------
    # Canonical form and store keys
    # ------------------------------------------------------------------
    @property
    def workload_digest(self) -> Optional[str]:
        """Digest of the workload weights (``None`` for the uniform workload)."""
        return workload_digest_of(self.workload)

    def canonical(self, budget: Optional[int] = None) -> Dict[str, Any]:
        """The canonical build-configuration dictionary for one budget.

        Knobs the described build ignores drop out, so they cannot fragment
        the cache: ``sanity`` only enters the relative metrics, ``epsilon``
        only the approximate scheme, ``kernel`` only the optimal DP,
        ``sse_variant`` only the SSE oracle, and wavelet builds carry none of
        the histogram machinery.  (Kernel choice *is* kept for optimal
        histograms even though every kernel returns an identical optimum; this
        keeps the store byte-reproducible per configuration and makes kernel
        ablations cache-friendly.)

        For a sweep spec the canonical form is per budget — pass which one.
        """
        if budget is None:
            if self.is_sweep:
                raise SynopsisError(
                    "a budget sweep has one canonical form per budget; pass budget=..."
                )
            budget = self.budgets[0]
        elif budget not in self.budgets:
            raise SynopsisError(f"budget {budget} is not part of this spec")
        config: Dict[str, Any] = {
            "synopsis": self.kind,
            "budget": int(budget),
            "metric": self.metric.metric.value,
        }
        if self.metric.relative:
            config["sanity"] = float(self.metric.sanity)
        if self.kind == "histogram":
            config["method"] = self.method
            if self.method == "approximate":
                config["epsilon"] = float(self.epsilon)
            else:
                config["kernel"] = self.kernel  # the approximate scheme has no kernel
            if self.metric.metric is ErrorMetric.SSE:
                config["sse_variant"] = self.sse_variant  # only the SSE oracle reads it
        elif self.partition is not None:  # kind == "partitioned"
            config["partition"] = self.partition.canonical()
            if self.base_kind == "histogram":
                # Per-shard builds are always the optimal DP, so the kernel
                # is the only histogram knob that reaches them.
                config["kernel"] = self.kernel
                if self.metric.metric is ErrorMetric.SSE:
                    config["sse_variant"] = self.sse_variant
        return config

    def store_key(self, fingerprint: str, budget: Optional[int] = None) -> str:
        """Content-address of this spec over a dataset fingerprint.

        The single source of :class:`~repro.service.SynopsisStore` cache keys;
        byte-identical to the keys of earlier releases for every previously
        cacheable configuration (golden-pinned in ``tests/test_spec.py``).
        """
        return canonical_store_key(fingerprint, self.canonical(budget), self.workload_digest)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Complete JSON-friendly representation (inverse of :meth:`from_dict`).

        Unlike :meth:`canonical`, this keeps every field — it describes the
        spec itself, not the cache-key equivalence class.
        """
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "budget": list(self.budget) if self.is_sweep else self.budget,
            "metric": self.metric.metric.value,
            "sanity": float(self.metric.sanity),
            "method": self.method,
            "kernel": self.kernel,
            "epsilon": float(self.epsilon),
            "sse_variant": self.sse_variant,
        }
        if self.workload is not None:
            payload["workload"] = [float(w) for w in self.workload.weights]
        if self.partition is not None:
            payload["partition"] = self.partition.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SynopsisSpec":
        """Build a spec from :meth:`to_dict` output (unknown keys are errors)."""
        if not isinstance(payload, Mapping):
            raise SynopsisError(
                f"a spec payload must be a mapping, got {type(payload).__name__}"
            )
        known = {
            "kind", "budget", "metric", "sanity", "method",
            "kernel", "epsilon", "sse_variant", "workload", "partition",
        }
        unknown = set(payload) - known
        if unknown:
            raise SynopsisError(
                f"unknown spec field(s) {sorted(unknown)}; expected a subset of {sorted(known)}"
            )
        if "budget" not in payload:
            raise SynopsisError("a spec payload needs a 'budget' field")
        budget = payload["budget"]
        if isinstance(budget, list):
            budget = tuple(budget)
        return cls(
            kind=payload.get("kind", "histogram"),
            budget=budget,
            metric=payload.get("metric", ErrorMetric.SSE),
            sanity=payload.get("sanity", DEFAULT_SANITY),
            method=payload.get("method", "optimal"),
            kernel=payload.get("kernel", DEFAULT_KERNEL),
            epsilon=payload.get("epsilon", DEFAULT_EPSILON),
            sse_variant=payload.get("sse_variant", DEFAULT_SSE_VARIANT),
            workload=payload.get("workload"),
            partition=payload.get("partition"),
        )

    def to_json(self) -> str:
        """Compact JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "SynopsisSpec":
        """Inverse of :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SynopsisError(f"invalid spec JSON: {exc}") from exc
        return cls.from_dict(payload)

    # ------------------------------------------------------------------
    # Data-dependent checks
    # ------------------------------------------------------------------
    def validate_for_domain(self, domain_size: int) -> None:
        """Checks that need the data: workload shape, budgets vs. domain size.

        A histogram cannot use more buckets than items and a wavelet cannot
        retain more coefficients than its transform has; such budgets are
        silently clamped by the solvers, so surface a
        :class:`~repro.exceptions.BudgetClampWarning` here where the caller
        can see (or promote) it.
        """
        if self.workload is not None:
            self.workload.for_domain(domain_size)
        if self.kind == "partitioned":
            part = self.partition
            assert part is not None  # paired at construction
            if part.shards > domain_size:
                raise SynopsisError(
                    f"cannot split a domain of {domain_size} items into "
                    f"{part.shards} non-empty shards"
                )
            if part.cuts is not None and part.cuts and part.cuts[-1] >= domain_size:
                raise SynopsisError(
                    f"shard cut {part.cuts[-1]} outside the domain [1, {domain_size})"
                )
        if self.base_kind == "histogram":
            capacity = domain_size
            unit = "buckets"
        elif self.base_kind == "wavelet":
            if self.kind == "partitioned":
                # Per-shard transforms pad to powers of two, so the exact
                # coefficient capacity depends on the (possibly data-driven)
                # shard spans; the builder clamps per shard instead.
                return
            capacity = 1
            while capacity < domain_size:
                capacity *= 2
            unit = "coefficients"
        else:
            return
        oversized = [b for b in self.budgets if b > capacity]
        if oversized:
            warn_at_caller(
                BudgetClampWarning(
                    f"requested {self.kind} budget(s) {oversized} exceed the "
                    f"{capacity} {unit} the domain of {domain_size} items can use; "
                    f"the build is clamped to {capacity}"
                )
            )

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Short human-readable summary (used by the CLI)."""
        budget = (
            "B=" + "/".join(str(b) for b in self.budget)
            if self.is_sweep
            else f"B={self.budget}"
        )
        parts = [self.kind, budget, self.metric.describe()]
        if self.kind == "partitioned":
            part = self.partition
            assert part is not None  # paired at construction
            parts.insert(1, part.base)
            parts.append(f"shards={part.shards}({part.strategy}, {part.allocation})")
        if self.base_kind == "histogram":
            if self.method == "approximate":
                parts.append(f"approximate(eps={self.epsilon:g})")
            elif self.kernel != DEFAULT_KERNEL:
                parts.append(f"kernel={self.kernel}")
            if self.metric.metric is ErrorMetric.SSE and self.sse_variant != DEFAULT_SSE_VARIANT:
                parts.append(f"sse_variant={self.sse_variant}")
        if self.workload is not None:
            parts.append(f"workload[{self.workload.domain_size}]")
        return " ".join(parts)
