"""End-to-end integration tests across models, synopses, evaluation and datasets."""

import numpy as np
import pytest

from repro import (
    ErrorMetric,
    MetricSpec,
    SynopsisSpec,
    build,
    expected_error,
)
from repro.datasets import (
    generate_movie_linkage,
    generate_sensor_readings,
    generate_tpch_lineitem,
)
from repro.histograms import (
    expectation_histogram,
    sampled_world_histogram,
)
from repro.wavelets import sampled_world_wavelet, sse_optimal_wavelet


class TestMovieLinkagePipeline:
    """Record-linkage workload (basic model) through the full histogram stack."""

    @pytest.fixture(scope="class")
    def model(self):
        return generate_movie_linkage(96, seed=23)

    @pytest.mark.parametrize("metric", ["sse", "ssre", "sae", "sare"])
    def test_more_buckets_never_hurt(self, model, metric):
        spec = SynopsisSpec(kind="histogram", budget=[2, 8, 24], metric=metric, sanity=0.5)
        histograms = build(model, spec)
        errors = [expected_error(model, h, metric, sanity=0.5) for h in histograms]
        assert errors[0] >= errors[1] - 1e-9 >= errors[2] - 2e-9

    def test_probabilistic_beats_sampled_world_clearly(self, model):
        """Figure 2's qualitative shape: the optimal construction wins, and a
        sampled world is the weakest baseline on low-confidence linkage data."""
        buckets = 12
        metric = MetricSpec.of("ssre", 0.5)
        optimal = build(model, SynopsisSpec(kind="histogram", budget=buckets, metric=metric))
        sampled = sampled_world_histogram(
            model, buckets, metric, rng=np.random.default_rng(1)
        )
        expectation = expectation_histogram(model, buckets, metric)
        optimal_error = expected_error(model, optimal, metric)
        expectation_error = expected_error(model, expectation, metric)
        sampled_error = expected_error(model, sampled, metric)
        assert optimal_error <= expectation_error + 1e-9
        assert optimal_error <= sampled_error + 1e-9
        assert sampled_error > optimal_error  # strictly worse on this workload

    def test_histogram_supports_range_queries(self, model):
        histogram = build(model, SynopsisSpec(kind="histogram", budget=10, metric="sse"))
        exact = model.expected_frequencies()[10:31].sum()
        estimate = histogram.range_sum_estimate(10, 30)
        assert estimate == pytest.approx(exact, rel=0.6)


class TestTpchPipeline:
    """Tuple-pdf workload through histograms (both SSE variants) and wavelets."""

    @pytest.fixture(scope="class")
    def model(self):
        return generate_tpch_lineitem(64, 256, seed=29)

    def test_sse_variants_both_run_and_fixed_matches_evaluation_optimum(self, model):
        fixed = build(
            model, SynopsisSpec(kind="histogram", budget=8, metric="sse", sse_variant="fixed")
        )
        paper = build(
            model, SynopsisSpec(kind="histogram", budget=8, metric="sse", sse_variant="paper")
        )
        fixed_error = expected_error(model, fixed, "sse")
        paper_error = expected_error(model, paper, "sse")
        # The fixed variant optimises exactly the evaluated objective, so it
        # can only be at least as good under that objective.
        assert fixed_error <= paper_error + 1e-9

    def test_wavelet_probabilistic_beats_sampled(self, model):
        budget = 12
        optimal = sse_optimal_wavelet(model, budget)
        sampled = sampled_world_wavelet(model, budget, rng=np.random.default_rng(2))
        assert expected_error(model, optimal, "sse") <= expected_error(model, sampled, "sse") + 1e-9

    def test_approximate_close_to_exact_on_real_workload(self, model):
        exact = build(model, SynopsisSpec(kind="histogram", budget=8, metric="ssre", sanity=1.0))
        approx = build(
            model,
            SynopsisSpec(
                kind="histogram", budget=8, metric="ssre", sanity=1.0, method="approximate",
                epsilon=0.1,
            ),
        )
        exact_error = expected_error(model, exact, "ssre")
        approx_error = expected_error(model, approx, "ssre")
        assert approx_error <= 1.1 * exact_error + 1e-9


class TestSensorPipeline:
    """Value-pdf workload with fractional frequencies and max-error objectives."""

    @pytest.fixture(scope="class")
    def model(self):
        return generate_sensor_readings(48, seed=31)

    def test_max_error_histogram(self, model):
        histogram = build(
            model, SynopsisSpec(kind="histogram", budget=6, metric=ErrorMetric.MARE, sanity=1.0)
        )
        error6 = expected_error(model, histogram, "mare", sanity=1.0)
        single = build(model, SynopsisSpec(kind="histogram", budget=1, metric="mare", sanity=1.0))
        assert error6 <= expected_error(model, single, "mare", sanity=1.0) + 1e-9

    def test_wavelet_reconstruction_tracks_expected_signal(self, model):
        synopsis = build(model, SynopsisSpec(kind="wavelet", budget=16, metric="sse"))
        estimates = synopsis.estimates()
        expected = model.expected_frequencies()
        # A 16-term synopsis of a smooth 48-point signal should correlate strongly.
        correlation = np.corrcoef(estimates, expected)[0, 1]
        assert correlation > 0.8

    def test_histogram_and_wavelet_close_in_quality(self, model):
        histogram = build(model, SynopsisSpec(kind="histogram", budget=8, metric="sse"))
        wavelet = build(model, SynopsisSpec(kind="wavelet", budget=8, metric="sse"))
        hist_error = expected_error(model, histogram, "sse")
        wave_error = expected_error(model, wavelet, "sse")
        floor = model.frequency_variances().sum()
        assert hist_error >= floor - 1e-9
        assert wave_error >= floor - 1e-9
