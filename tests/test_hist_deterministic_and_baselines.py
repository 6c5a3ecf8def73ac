"""Tests for the deterministic histogram substrate and the naive baselines."""

import numpy as np
import pytest

from repro import SynopsisSpec, build, expected_error
from repro.exceptions import SynopsisError
from repro.histograms.baselines import expectation_histogram, sampled_world_histogram
from repro.histograms.deterministic import (
    equi_depth_histogram,
    equi_width_histogram,
    maxdiff_histogram,
    optimal_deterministic_histogram,
)
from tests.conftest import small_basic, small_tuple_pdf, small_value_pdf


class TestOptimalDeterministicHistogram:
    def test_v_optimal_on_step_data(self):
        frequencies = [1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 9.0, 9.0, 9.0]
        histogram = optimal_deterministic_histogram(frequencies, 3, "sse")
        assert histogram.boundaries == [(0, 2), (3, 5), (6, 8)]
        assert np.allclose(histogram.estimates(), frequencies)

    def test_single_bucket_mean(self):
        frequencies = [2.0, 4.0, 6.0]
        histogram = optimal_deterministic_histogram(frequencies, 1, "sse")
        assert histogram.buckets[0].representative == pytest.approx(4.0)

    @pytest.mark.parametrize("metric", ["sse", "ssre", "sae", "sare", "mae", "mare"])
    def test_all_metrics_supported(self, metric):
        frequencies = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        histogram = optimal_deterministic_histogram(frequencies, 3, metric, sanity=0.5)
        assert histogram.bucket_count <= 3

    def test_zero_error_with_full_budget(self):
        frequencies = [3.0, 1.0, 4.0, 1.0]
        histogram = optimal_deterministic_histogram(frequencies, 4, "sae")
        assert np.allclose(histogram.estimates(), frequencies)


class TestHeuristicHistograms:
    def test_equi_width_spans(self):
        histogram = equi_width_histogram(np.arange(10.0), 5)
        assert histogram.boundaries == [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]

    def test_equi_width_uneven(self):
        histogram = equi_width_histogram(np.arange(10.0), 3)
        assert histogram.boundaries[0][0] == 0 and histogram.boundaries[-1][1] == 9

    def test_equi_depth_balances_mass(self):
        frequencies = np.array([10.0, 0.0, 0.0, 0.0, 10.0, 0.0, 0.0, 10.0])
        histogram = equi_depth_histogram(frequencies, 3)
        assert histogram.bucket_count == 3
        assert histogram.boundaries[0][0] == 0 and histogram.boundaries[-1][1] == 7

    def test_maxdiff_splits_at_largest_gaps(self):
        frequencies = np.array([1.0, 1.0, 50.0, 50.0, 1.0, 1.0])
        histogram = maxdiff_histogram(frequencies, 3)
        # The two largest adjacent differences are at positions 1->2 and 3->4.
        starts = [start for start, _ in histogram.boundaries]
        assert starts == [0, 2, 4]

    def test_heuristics_reject_bad_input(self):
        with pytest.raises(SynopsisError):
            equi_width_histogram([], 2)
        with pytest.raises(SynopsisError):
            equi_depth_histogram([1.0], 0)

    def test_representatives_are_bucket_means(self):
        frequencies = np.array([2.0, 4.0, 10.0, 20.0])
        histogram = equi_width_histogram(frequencies, 2)
        assert histogram.buckets[0].representative == pytest.approx(3.0)
        assert histogram.buckets[1].representative == pytest.approx(15.0)

    def test_single_bucket_heuristics(self):
        frequencies = np.array([5.0, 1.0])
        for build in (equi_width_histogram, equi_depth_histogram, maxdiff_histogram):
            histogram = build(frequencies, 1)
            assert histogram.boundaries == [(0, 1)]


class TestBaselines:
    @pytest.mark.parametrize(
        "factory", [small_value_pdf, small_tuple_pdf, small_basic], ids=["value", "tuple", "basic"]
    )
    @pytest.mark.parametrize("metric", ["sse", "ssre", "sae", "sare"])
    def test_probabilistic_construction_never_loses(self, factory, metric):
        """The central claim of the paper: the probabilistic DP is optimal, so
        it is at least as good as both naive baselines under the expected metric."""
        model = factory(seed=101, domain_size=8)
        buckets = 3
        optimal = build(
            model, SynopsisSpec(kind="histogram", budget=buckets, metric=metric, sanity=1.0)
        )
        optimal_error = expected_error(model, optimal, metric, sanity=1.0)

        exp_hist = expectation_histogram(model, buckets, metric, sanity=1.0)
        sampled = sampled_world_histogram(
            model, buckets, metric, sanity=1.0, rng=np.random.default_rng(5)
        )
        assert optimal_error <= expected_error(model, exp_hist, metric, sanity=1.0) + 1e-9
        assert optimal_error <= expected_error(model, sampled, metric, sanity=1.0) + 1e-9

    def test_baselines_are_valid_histograms(self, random_small_basic):
        for histogram in (
            expectation_histogram(random_small_basic, 3, "sse"),
            sampled_world_histogram(random_small_basic, 3, "sse", rng=np.random.default_rng(1)),
        ):
            assert histogram.domain_size == random_small_basic.domain_size
            assert histogram.boundaries[0][0] == 0

    def test_expectation_histogram_on_deterministic_data_is_optimal(self):
        from repro import ValuePdfModel

        model = ValuePdfModel.deterministic([1.0, 1.0, 8.0, 8.0])
        baseline = expectation_histogram(model, 2, "sse")
        optimal = build(model, SynopsisSpec(kind="histogram", budget=2, metric="sse"))
        assert expected_error(model, baseline, "sse") == pytest.approx(
            expected_error(model, optimal, "sse")
        )

    def test_sampled_world_reproducible_with_rng(self, random_small_basic):
        a = sampled_world_histogram(
            random_small_basic, 2, "sse", rng=np.random.default_rng(42)
        )
        b = sampled_world_histogram(
            random_small_basic, 2, "sse", rng=np.random.default_rng(42)
        )
        assert a.boundaries == b.boundaries
