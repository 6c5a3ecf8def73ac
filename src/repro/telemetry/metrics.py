"""Typed instruments and the process-wide metrics registry.

Three instrument kinds, mirroring the Prometheus data model:

- :class:`Counter` — monotonically non-decreasing totals;
- :class:`Gauge` — values that go up and down (queue depths, cache sizes);
- :class:`Histogram` — fixed-bucket distributions (per-bucket counts, sum
  and count; exact percentiles are the reporting layer's job, from raw
  samples: ``protocol.latency_summary``).

An instrument records whenever it is called.  :data:`STATE` (flipped by
:func:`enable` / :func:`disable`, off by default) is a switch for *call
sites*: the span tracer and the engine's answer latency check it before
they measure anything, so the serving hot path pays one attribute check
while telemetry is off.  Counters that are load-bearing on their own — each
store's and each daemon's registry, behind ``StoreStats`` and
``ServingStats`` — are simply called unconditionally.

Instruments with ``labelnames`` are families: call ``.labels(key=value)`` to
get (and cache) the child that actually records.  Children appear as
individual samples under the family name in exposition.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_MS",
    "MetricsRegistry",
    "STATE",
    "disable",
    "enable",
    "enabled",
    "registry",
]

#: Shared latency bucket boundaries (milliseconds, upper bounds; +Inf is
#: implicit).  The daemon's server-side histograms and the loadgen's
#: client-side histograms both use these so the two distributions line up
#: bucket-for-bucket in ``BENCH_service.json``.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
)


class _TelemetryState:
    """The one mutable flag that telemetry call sites check before measuring."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


STATE = _TelemetryState()


def enable() -> None:
    """Turn span and engine-latency recording on (process-wide)."""
    STATE.enabled = True


def disable() -> None:
    """Return span and engine-latency call sites to their no-op fast path."""
    STATE.enabled = False


def enabled() -> bool:
    """Whether span and engine-latency call sites currently record."""
    return STATE.enabled


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name) or name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _validate_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not label or not all(c.isalnum() or c == "_" for c in label) or label[0].isdigit():
            raise ValueError(f"invalid label name {label!r}")
        if label.startswith("__"):
            raise ValueError(f"label name {label!r} is reserved")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names in {names!r}")
    return names


_Self = TypeVar("_Self", bound="_Instrument")


class _Instrument:
    """Shared family plumbing: naming, labels, child creation."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
    ) -> None:
        self.name = _validate_name(name)
        self.help = help
        self.labelnames = _validate_labelnames(labelnames)
        self._children: Dict[Tuple[str, ...], Any] = {}
        self._lock = threading.Lock()

    def labels(self: _Self, **labels: object) -> _Self:
        """The child instrument for one label combination (created on demand)."""
        if not self.labelnames:
            raise ValueError(f"metric {self.name!r} has no labels")
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, got {tuple(labels)}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    def _make_child(self: _Self) -> _Self:
        raise NotImplementedError

    def _require_scalar(self) -> None:
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} is a labelled family; record through .labels(...)"
            )

    def samples(self: _Self) -> Iterator[Tuple[Dict[str, str], _Self]]:
        """Yield ``(labels, child)`` pairs — one empty-label pair for scalars."""
        if not self.labelnames:
            yield {}, self
        else:
            for key, child in list(self._children.items()):
                yield dict(zip(self.labelnames, key)), child


class Counter(_Instrument):
    """A monotonically non-decreasing total."""

    kind = "counter"

    def __init__(
        self,
        name: str = "counter",
        help: str = "",
        labelnames: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def _make_child(self) -> "Counter":
        return Counter(self.name, self.help)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self._require_scalar()
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Instrument):
    """A value that can move in both directions."""

    kind = "gauge"

    def __init__(
        self,
        name: str = "gauge",
        help: str = "",
        labelnames: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def _make_child(self) -> "Gauge":
        return Gauge(self.name, self.help)

    def set(self, value: float) -> None:
        self._require_scalar()
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._require_scalar()
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Instrument):
    """Fixed-bucket distribution: per-bucket counts plus a sum and a count.

    ``buckets`` are strictly increasing upper bounds; the +Inf bucket is
    implicit (``counts`` has one more entry than ``buckets``).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str = "histogram",
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS_MS,
        labelnames: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram buckets must strictly increase, got {bounds!r}")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, self.help, self.buckets)

    def observe(self, value: float) -> None:
        self._require_scalar()
        value = float(value)
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_counts(self) -> List[int]:
        """Per-bucket cumulative counts, ending with the +Inf total."""
        total = 0
        out = []
        for c in self.counts:
            total += c
            out.append(total)
        return out

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe view: finite upper bounds plus an overflow count."""
        return {
            "upper_bounds": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


AnyInstrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create home for instruments, in stable registration order.

    ``counter``/``gauge``/``histogram`` are idempotent: asking again for an
    existing name returns the original instrument (and raises if the kind or
    labels disagree), so module-level call sites and per-object call sites
    can share families without coordination.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, AnyInstrument] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls: type, name: str, kwargs: Dict[str, object]) -> AnyInstrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                labelnames = tuple(kwargs.get("labelnames", ()))  # type: ignore[arg-type]
                if tuple(existing.labelnames) != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, asked for {labelnames}"
                    )
                return existing
            instrument = cls(name, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        out = self._get_or_create(Counter, name, {"help": help, "labelnames": labelnames})
        assert isinstance(out, Counter)
        return out

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        out = self._get_or_create(Gauge, name, {"help": help, "labelnames": labelnames})
        assert isinstance(out, Gauge)
        return out

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS_MS,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        out = self._get_or_create(
            Histogram, name, {"help": help, "buckets": buckets, "labelnames": labelnames}
        )
        assert isinstance(out, Histogram)
        return out

    def get(self, name: str) -> Optional[AnyInstrument]:
        return self._instruments.get(name)

    def instruments(self) -> List[AnyInstrument]:
        return list(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)


#: The process-wide registry: the engine's answer latency and the span
#: families, which any caller in the process feeds.
_DEFAULT_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry (engine and span families)."""
    return _DEFAULT_REGISTRY
