"""Tests for the dependency-free observability layer (repro.telemetry).

Covers the typed instruments (which record whether or not telemetry is
enabled), the span tracer (including
pickling across process boundaries and grafting shipped-back trees), the
Prometheus text exposition round trip, structured JSON logging, the
disabled-telemetry overhead bound on the serving hot path, and the complete
span tree of a partitioned multi-process build.
"""

import io
import json
import logging
import os
import pickle
import time
import warnings

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RateLimiter,
    adopt_spans,
    capture_spans,
    configure_logging,
    parse_prometheus_text,
    render_prometheus,
    span,
)
from repro.telemetry.logs import JsonLineFormatter, get_logger, log_event
from repro.telemetry.tracing import NULL_SPAN, Span


@pytest.fixture(autouse=True)
def telemetry_disabled():
    """Every test starts (and leaves the process) with telemetry off."""
    telemetry.disable()
    yield
    telemetry.disable()


@pytest.fixture
def enabled():
    telemetry.enable()
    yield
    telemetry.disable()


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_instruments_record_while_telemetry_is_disabled(self):
        assert not telemetry.STATE.enabled
        registry = MetricsRegistry()
        counter = registry.counter("t_always_total")
        gauge = registry.gauge("t_always_gauge")
        histogram = registry.histogram("t_always_ms")
        counter.inc()
        counter.inc(2.5)
        gauge.set(5)
        histogram.observe(1.0)
        assert counter.value == 3.5
        assert gauge.value == 5
        assert histogram.count == 1

    def test_counter_rejects_negative_increments(self):
        counter = Counter("t_mono_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("t_depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12

    def test_histogram_buckets_count_and_sum(self):
        histogram = Histogram("t_lat_ms", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1, 1]  # one per bucket + overflow
        assert histogram.cumulative_counts() == [1, 2, 3, 4]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(555.5)

    def test_histogram_snapshot_is_json_safe(self):
        histogram = Histogram("t_snap_ms", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(5.0)
        snapshot = histogram.snapshot()
        json.dumps(snapshot)  # no Infinity, no numpy scalars
        assert snapshot == {"upper_bounds": [1.0, 2.0], "counts": [1, 0, 1],
                            "count": 2, "sum": 5.5}

    def test_histogram_rejects_unordered_buckets(self):
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("t_bad_ms", buckets=(2.0, 1.0))

    def test_labelled_family_children_and_samples(self):
        registry = MetricsRegistry()
        family = registry.counter("t_ops_total", labelnames=("op",))
        family.labels(op="ping").inc()
        family.labels(op="ping").inc()
        family.labels(op="query").inc(3)
        samples = {tuple(labels.items()): child.value for labels, child in family.samples()}
        assert samples == {(("op", "ping"),): 2.0, (("op", "query"),): 3.0}
        assert family.labels(op="ping") is family.labels(op="ping")

    def test_labels_validate_names_and_shape(self):
        registry = MetricsRegistry()
        family = registry.counter("t_shape_total", labelnames=("op",))
        with pytest.raises(ValueError, match="expects labels"):
            family.labels(other="x")
        scalar = registry.counter("t_scalar_total")
        with pytest.raises(ValueError, match="has no labels"):
            scalar.labels(op="x")
        with pytest.raises(ValueError, match="record through"):
            family.inc()

    def test_invalid_metric_and_label_names_are_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("9starts_with_digit")
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("has space")
        with pytest.raises(ValueError, match="reserved"):
            Counter("t_ok_total", labelnames=("__hidden",))

    def test_registry_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("t_idem_total", "help text")
        again = registry.counter("t_idem_total")
        assert first is again
        assert len(registry) == 1
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("t_idem_total")
        with pytest.raises(ValueError, match="already registered with labels"):
            registry.counter("t_idem_total", labelnames=("op",))


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_span_is_a_noop_when_tracing_is_inactive(self):
        with span("t.noop", k=1) as trace:
            trace.set(more=2)
        assert trace is NULL_SPAN

    def test_capture_spans_records_nesting_and_timings(self):
        with capture_spans() as captured:
            with span("t.outer", k=1) as outer:
                with span("t.inner"):
                    time.sleep(0.001)
                outer.set(extra="yes")
        assert len(captured) == 1
        root = captured[0]
        assert root.name == "t.outer"
        assert root.attrs == {"k": 1, "extra": "yes"}
        assert [child.name for child in root.children] == ["t.inner"]
        assert root.wall_ms >= root.children[0].wall_ms >= 1.0
        assert root.cpu_ms >= 0.0

    def test_exceptions_mark_the_span_and_propagate(self):
        with capture_spans() as captured:
            with pytest.raises(RuntimeError):
                with span("t.boom"):
                    raise RuntimeError("no")
        assert captured[0].attrs["error"] == "RuntimeError"

    def test_span_to_dict_and_find(self):
        with capture_spans() as captured:
            with span("t.a", x=1):
                with span("t.b"):
                    pass
        tree = captured[0].to_dict()
        json.dumps(tree)
        assert tree["name"] == "t.a"
        assert tree["children"][0]["name"] == "t.b"
        assert [record.name for record in captured[0].find("t.b")] == ["t.b"]
        assert captured[0].find("t.missing") == []

    def test_spans_pickle_across_process_boundaries(self):
        with capture_spans() as captured:
            with span("t.parent", pid=1234):
                with span("t.child"):
                    pass
        clone = pickle.loads(pickle.dumps(captured[0]))
        assert clone.name == "t.parent"
        assert clone.children[0].name == "t.child"
        assert clone.attrs == {"pid": 1234}

    def test_detached_capture_hides_the_live_parent(self):
        with capture_spans() as outer_sink:
            with span("t.live"):
                with capture_spans(detach=True) as detached:
                    with span("t.shipped"):
                        pass
        # The detached tree never attached to t.live; it sits in its own sink.
        assert [record.name for record in outer_sink] == ["t.live"]
        assert outer_sink[0].children == []
        assert [record.name for record in detached] == ["t.shipped"]

    def test_adopt_spans_grafts_into_the_active_trace(self):
        shipped = Span(name="t.remote", attrs={"pid": 99})
        with capture_spans() as captured:
            with span("t.local"):
                adopt_spans([shipped])
        assert [child.name for child in captured[0].children] == ["t.remote"]

    def test_span_metrics_feed_the_global_registry(self, enabled):
        count = telemetry.registry().get("repro_span_total")
        before = {
            labels["span"]: child.value for labels, child in count.samples()
        }.get("t.metered", 0.0)
        with span("t.metered"):
            pass
        after = {
            labels["span"]: child.value for labels, child in count.samples()
        }["t.metered"]
        assert after == before + 1


# ----------------------------------------------------------------------
# Exposition
# ----------------------------------------------------------------------
class TestExposition:
    def test_render_and_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "a counter").inc(3)
        registry.gauge("t_depth", "a gauge").set(7)
        family = registry.counter("t_by_op_total", labelnames=("op",))
        family.labels(op='we"ird\nname\\').inc(2)
        histogram = registry.histogram("t_ms", "a histogram", buckets=(1.0, 10.0))
        histogram.observe(0.5)
        histogram.observe(100.0)

        text = render_prometheus(registry)
        families = parse_prometheus_text(text)
        assert families["t_total"].kind == "counter"
        assert families["t_total"].samples == [("t_total", {}, 3.0)]
        assert families["t_depth"].samples == [("t_depth", {}, 7.0)]
        (name, labels, value) = families["t_by_op_total"].samples[0]
        assert labels == {"op": 'we"ird\nname\\'} and value == 2.0
        buckets = {
            labels.get("le"): value
            for name, labels, value in families["t_ms"].samples
            if name == "t_ms_bucket"
        }
        assert buckets["1"] == 1.0 and buckets["10"] == 1.0
        assert buckets["+Inf"] == 2.0
        sums = [s for s in families["t_ms"].samples if s[0] == "t_ms_sum"]
        assert sums[0][2] == pytest.approx(100.5)

    def test_multiple_registries_first_name_wins(self):
        first = MetricsRegistry()
        second = MetricsRegistry()
        first.counter("t_shared_total").inc(1)
        second.counter("t_shared_total").inc(99)
        second.counter("t_only_total").inc(5)
        families = parse_prometheus_text(render_prometheus([first, second]))
        assert families["t_shared_total"].samples[0][2] == 1.0
        assert families["t_only_total"].samples[0][2] == 5.0

    def test_families_are_exposed_even_before_any_sample(self):
        registry = MetricsRegistry()
        registry.counter("t_latent_total", "registered but never incremented")
        families = parse_prometheus_text(render_prometheus(registry))
        assert "t_latent_total" in families

    @pytest.mark.parametrize(
        "text",
        [
            "# TYPE t_x not_a_kind\n",
            "t_x{op=unquoted} 1\n",
            "t_x one_point_five\n",
            "just some words\n",
        ],
    )
    def test_malformed_exposition_raises(self, text):
        with pytest.raises(ValueError):
            parse_prometheus_text(text)


# ----------------------------------------------------------------------
# Logs
# ----------------------------------------------------------------------
class TestLogs:
    def test_log_event_emits_one_json_line(self):
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(JsonLineFormatter())
        logger = get_logger("test.jsonl")
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        logger.propagate = False
        try:
            log_event(logger, logging.INFO, "unit.event", answer=42, who="x")
        finally:
            logger.removeHandler(handler)
        record = json.loads(stream.getvalue())
        assert record["event"] == "unit.event"
        assert record["answer"] == 42 and record["who"] == "x"
        assert record["level"] == "info"
        assert record["logger"].endswith("test.jsonl")
        assert record["ts"].endswith("+00:00")  # ISO-8601, explicit UTC

    def test_configure_logging_is_idempotent(self):
        stream = io.StringIO()
        root = configure_logging("debug", stream=stream)
        count_first = len(root.handlers)
        configure_logging("warning", stream=stream)
        assert len(root.handlers) == count_first
        assert root.level == logging.WARNING
        # Restore the quiet default so other tests see no extra handlers.
        for handler in list(root.handlers):
            if getattr(handler, "_repro_telemetry", False):
                root.removeHandler(handler)
        root.setLevel(logging.NOTSET)

    def test_rate_limiter_counts_what_it_suppresses(self):
        limiter = RateLimiter(interval_seconds=60.0)
        assert limiter.allow("overload") is True
        assert limiter.allow("overload") is False
        assert limiter.allow("overload") is False
        assert limiter.allow("other") is True
        assert limiter.drain_suppressed("overload") == 2
        assert limiter.drain_suppressed("overload") == 0


# ----------------------------------------------------------------------
# Overhead: disabled telemetry on the serving hot path
# ----------------------------------------------------------------------
class TestDisabledOverhead:
    def test_disabled_telemetry_costs_at_most_one_percent(self):
        """The instrumented engine.answer stays within 1% of an
        uninstrumented control replica while telemetry is disabled."""
        from repro.service.engine import _RANGE_AVG_CODE, BatchQueryEngine
        from repro.service.queries import QueryBatch
        from repro.service.replay import generate_query_mix
        from repro.core.builders import build
        from repro.core.spec import SynopsisSpec

        telemetry.disable()
        rng = np.random.default_rng(5)
        frequencies = rng.integers(0, 50, size=256).astype(float)
        histogram = build(frequencies, SynopsisSpec(kind="histogram", budget=16))
        engine = BatchQueryEngine(histogram)
        batch = generate_query_mix(256, 512, seed=5)

        def control(batch: QueryBatch) -> np.ndarray:
            # engine.answer exactly as it was before instrumentation.
            engine._check_batch(batch)
            answers = engine._synopsis.range_sum_estimates(batch.starts, batch.ends)
            averages = batch.kinds == _RANGE_AVG_CODE
            if np.any(averages):
                answers = answers.astype(float, copy=True)
                answers[averages] /= batch.widths[averages]
            return answers

        np.testing.assert_array_equal(engine.answer(batch), control(batch))

        def best_of(fn, repeats=7, calls=40):
            best = float("inf")
            for _ in range(repeats):
                started = time.perf_counter()
                for _ in range(calls):
                    fn(batch)
                best = min(best, time.perf_counter() - started)
            return best

        # Interleaved min-of-N timing; retried because a shared CI box can
        # stall either side.  The bound itself stays the asserted 1%.
        for attempt in range(5):
            instrumented = best_of(engine.answer)
            baseline = best_of(control)
            if instrumented <= baseline * 1.01:
                break
        assert instrumented <= baseline * 1.01, (
            f"disabled telemetry cost {instrumented / baseline - 1:.2%} "
            f"(instrumented {instrumented:.6f}s vs control {baseline:.6f}s)"
        )


# ----------------------------------------------------------------------
# Build-pipeline span tree (partitioned, multi-process)
# ----------------------------------------------------------------------
class TestBuildSpanTree:
    def test_partitioned_build_produces_a_complete_span_tree(self, monkeypatch):
        """A K=4, workers=2 partitioned build yields the full trace: partition
        root, one shard span per shard carrying its builder pid (child
        processes when a pool stands up), per-shard nested build spans, and
        the allocation span."""
        from repro.core.builders import build
        from repro.core.spec import PartitionSpec, SynopsisSpec

        # The container may expose a single CPU, which would clamp workers=2
        # down to the serial path at spec construction; the span-marshalling
        # contract under test is the multi-process one.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        spec = SynopsisSpec(
            kind="partitioned",
            budget=8,
            metric="sse",
            partition=PartitionSpec(shards=4, base="histogram", workers=2),
        )
        rng = np.random.default_rng(11)
        frequencies = rng.integers(0, 30, size=64).astype(float)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with capture_spans() as captured:
                build(frequencies, spec)
        pool_fell_back = any(
            issubclass(w.category, RuntimeWarning) for w in caught
        )

        assert [record.name for record in captured] == ["build.synopsis"]
        root = captured[0]
        (partition,) = root.find("build.partition")
        assert partition.attrs["workers"] == 2
        assert partition.attrs["shards"] == 4

        shards = [c for c in partition.children if c.name == "build.shard"]
        assert len(shards) == 4
        spans_covered = sorted((s.attrs["start"], s.attrs["end"]) for s in shards)
        assert spans_covered[0][0] == 0 and spans_covered[-1][1] == 63
        for shard in shards:
            # Every shard ran the full per-shard pipeline under its span.
            assert shard.find("build.synopsis")
            assert shard.find("build.cost_oracle")
            assert shard.find("build.kernel_resolve")
            assert shard.find("build.dp")

        assert partition.find("build.allocate")

        shard_pids = {shard.attrs["pid"] for shard in shards}
        if pool_fell_back:
            assert shard_pids == {os.getpid()}
        else:
            # The trees were pickled home from pool workers.
            assert os.getpid() not in shard_pids

    @pytest.mark.parametrize("metric,kernel", [("sse", "auto"), ("sae", "exact")])
    def test_optimal_histogram_build_span_tree(self, metric, kernel):
        """An optimal histogram build traces the oracle, the kernel choice and
        the DP, in that order, as the build span's only children.  No resolved
        kernel name is asserted: it depends on the compiled backend."""
        from repro.core.builders import build
        from repro.core.spec import SynopsisSpec

        frequencies = np.random.default_rng(8).integers(0, 30, size=32).astype(float)
        with capture_spans() as captured:
            build(frequencies, SynopsisSpec(budget=6, metric=metric, kernel=kernel))
        (root,) = captured
        assert root.name == "build.synopsis"
        assert [child.name for child in root.children] == [
            "build.cost_oracle",
            "build.kernel_resolve",
            "build.dp",
        ]
        _, resolve, dp = root.children
        assert resolve.attrs["requested"] == kernel
        assert resolve.attrs["kernel"] == dp.attrs["kernel"]
        assert dp.attrs["buckets"] == 6
        assert dp.attrs["n"] == 32

    def test_approximate_histogram_build_spans_only_the_oracle(self):
        """The approximate scheme shares the oracle span and has no kernel."""
        from repro.core.builders import build
        from repro.core.spec import SynopsisSpec

        frequencies = np.random.default_rng(8).integers(0, 30, size=32).astype(float)
        spec = SynopsisSpec(budget=6, metric="sse", method="approximate", epsilon=0.1)
        with capture_spans() as captured:
            build(frequencies, spec)
        (root,) = captured
        assert [child.name for child in root.children] == ["build.cost_oracle"]

    def test_wavelet_build_traces_per_level_dp(self):
        from repro.core.builders import build
        from repro.core.spec import SynopsisSpec

        rng = np.random.default_rng(3)
        frequencies = rng.integers(0, 20, size=16).astype(float)
        with capture_spans() as captured:
            build(frequencies, SynopsisSpec(kind="wavelet", budget=4, metric="sae"))
        (wavelet_dp,) = captured[0].find("build.wavelet_dp")
        levels = [c for c in wavelet_dp.children if c.name == "build.wavelet_level"]
        assert len(levels) == 4  # log2(16) levels
        assert sorted(level.attrs["depth"] for level in levels) == [0, 1, 2, 3]
