"""Dependency-free observability: metrics, spans, exposition, structured logs.

Instruments record whenever they are called.  The layer has one
process-wide switch (:func:`enable` / :func:`disable`, off by default) that
span and engine-latency call sites check before they measure, so the
serving hot path pays a single attribute check when observability is off.
Each store and each daemon owns a :class:`MetricsRegistry`; the process-wide
:func:`registry` holds only the engine and span families.  See DESIGN.md's
"Telemetry" section for the instrument taxonomy and the span marshalling
protocol across process pools.
"""

from .exposition import CONTENT_TYPE, MetricFamily, parse_prometheus_text, render_prometheus
from .logs import (
    JsonLineFormatter,
    RateLimiter,
    configure_logging,
    get_logger,
    log_event,
)
from .metrics import (
    LATENCY_BUCKETS_MS,
    STATE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disable,
    enable,
    enabled,
    registry,
)
from .tracing import NULL_SPAN, Span, adopt_spans, capture_spans, span, tracing_active

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLineFormatter",
    "LATENCY_BUCKETS_MS",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_SPAN",
    "RateLimiter",
    "STATE",
    "Span",
    "adopt_spans",
    "capture_spans",
    "configure_logging",
    "disable",
    "enable",
    "enabled",
    "get_logger",
    "log_event",
    "parse_prometheus_text",
    "registry",
    "render_prometheus",
    "span",
    "tracing_active",
]
