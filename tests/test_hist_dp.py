"""Tests for the histogram dynamic program: optimality against brute force."""

import itertools

import numpy as np
import pytest

from repro import ErrorMetric, SynopsisSpec, build, expected_error
from repro.exceptions import SynopsisError
from repro.histograms.dp import (
    histogram_from_boundaries,
    optimal_histogram,
    solve_dynamic_program,
)
from repro.histograms.factory import make_cost_function
from tests.conftest import small_basic, small_tuple_pdf, small_value_pdf


def all_bucketings(n, buckets):
    """Every way of partitioning [0, n) into exactly `buckets` contiguous buckets."""
    for cut_points in itertools.combinations(range(1, n), buckets - 1):
        edges = [0, *cut_points, n]
        yield [(edges[k], edges[k + 1] - 1) for k in range(len(edges) - 1)]


def brute_force_optimum(cost_fn, buckets):
    best = np.inf
    for bucketing in all_bucketings(cost_fn.domain_size, buckets):
        best = min(best, cost_fn.total_cost(bucketing))
    return best


CUMULATIVE_METRICS = ["sse", "ssre", "sae", "sare"]
ALL_METRICS = CUMULATIVE_METRICS + ["mae", "mare"]


class TestOptimalityAgainstBruteForce:
    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize(
        "factory", [small_value_pdf, small_tuple_pdf, small_basic], ids=["value", "tuple", "basic"]
    )
    def test_dp_matches_exhaustive_bucketing_search(self, metric, factory):
        model = factory(seed=71, domain_size=7)
        cost_fn = make_cost_function(model, metric, sanity=0.5)
        for buckets in (1, 2, 3):
            dp = solve_dynamic_program(cost_fn, buckets)
            assert dp.optimal_error(buckets) == pytest.approx(
                brute_force_optimum(cost_fn, buckets), abs=1e-9
            )

    @pytest.mark.parametrize("metric", CUMULATIVE_METRICS)
    def test_dp_histogram_achieves_reported_error(self, metric):
        model = small_value_pdf(seed=72, domain_size=8)
        cost_fn = make_cost_function(model, metric, sanity=1.0)
        dp = solve_dynamic_program(cost_fn, 3)
        histogram = dp.histogram(3)
        achieved = cost_fn.total_cost(histogram.boundaries)
        assert achieved == pytest.approx(dp.optimal_error(3), abs=1e-9)

    def test_sse_paper_variant_dp(self):
        model = small_tuple_pdf(seed=73, domain_size=6)
        cost_fn = make_cost_function(model, "sse", sse_variant="paper")
        dp = solve_dynamic_program(cost_fn, 2)
        assert dp.optimal_error(2) == pytest.approx(brute_force_optimum(cost_fn, 2), abs=1e-9)


class TestDpStructure:
    def test_errors_monotone_in_budget(self):
        model = small_value_pdf(seed=74, domain_size=10)
        cost_fn = make_cost_function(model, "sse")
        dp = solve_dynamic_program(cost_fn, 6)
        errors = [dp.optimal_error(b) for b in range(1, 7)]
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))

    def test_boundaries_form_partition(self):
        model = small_value_pdf(seed=75, domain_size=9)
        dp = solve_dynamic_program(make_cost_function(model, "sae"), 9)
        for buckets in (1, 3, 5, 9):
            spans = dp.boundaries(buckets)
            assert spans[0][0] == 0
            assert spans[-1][1] == 8
            for (_, left_end), (right_start, _) in zip(spans, spans[1:]):
                assert right_start == left_end + 1

    def test_budget_above_domain_size_is_clamped(self):
        model = small_value_pdf(seed=76, domain_size=5)
        histogram = optimal_histogram(make_cost_function(model, "sse"), 50)
        assert histogram.bucket_count <= 5

    def test_single_bucket(self):
        model = small_value_pdf(seed=77, domain_size=5)
        cost_fn = make_cost_function(model, "sse")
        histogram = optimal_histogram(cost_fn, 1)
        assert histogram.boundaries == [(0, 4)]

    def test_full_budget_uses_singleton_buckets_cost(self):
        model = small_value_pdf(seed=78, domain_size=6)
        cost_fn = make_cost_function(model, "sse")
        dp = solve_dynamic_program(cost_fn, 6)
        singleton_cost = sum(cost_fn.cost(i, i) for i in range(6))
        assert dp.optimal_error(6) == pytest.approx(singleton_cost, abs=1e-9)

    def test_invalid_budget_rejected(self):
        model = small_value_pdf(seed=79, domain_size=4)
        cost_fn = make_cost_function(model, "sse")
        with pytest.raises(SynopsisError):
            solve_dynamic_program(cost_fn, 0)
        dp = solve_dynamic_program(cost_fn, 2)
        with pytest.raises(SynopsisError):
            dp.optimal_error(3)

    def test_histograms_for_budgets_match_individual_runs(self):
        model = small_value_pdf(seed=80, domain_size=8)
        cost_fn = make_cost_function(model, "ssre", sanity=1.0)
        dp = solve_dynamic_program(cost_fn, 4)
        for budget in (1, 2, 4):
            histogram = dp.histogram(budget)
            alone = optimal_histogram(cost_fn, budget)
            assert cost_fn.total_cost(histogram.boundaries) == pytest.approx(
                cost_fn.total_cost(alone.boundaries), abs=1e-9
            )

    def test_histogram_from_boundaries_uses_optimal_representatives(self):
        model = small_value_pdf(seed=82, domain_size=6)
        cost_fn = make_cost_function(model, "sse")
        histogram = histogram_from_boundaries(cost_fn, [(0, 2), (3, 5)])
        assert histogram.buckets[0].representative == pytest.approx(
            cost_fn.representative(0, 2)
        )


class TestBuildHistogramEntryPoint:
    def test_optimal_method_matches_direct_dp(self, example1_value):
        histogram = build(
            example1_value, SynopsisSpec(kind="histogram", budget=2, metric=ErrorMetric.SSE)
        )
        cost_fn = make_cost_function(example1_value, "sse")
        direct = optimal_histogram(cost_fn, 2)
        assert histogram.boundaries == direct.boundaries

    def test_deterministic_input_gives_v_optimal(self):
        frequencies = [1.0, 1.0, 1.0, 9.0, 9.0, 9.0]
        histogram = build(frequencies, SynopsisSpec(kind="histogram", budget=2, metric="sse"))
        assert histogram.boundaries == [(0, 2), (3, 5)]
        assert expected_error(
            __import__("repro").FrequencyDistributions.deterministic(frequencies),
            histogram,
            "sse",
        ) == pytest.approx(0.0)

    def test_invalid_arguments(self, example1_value):
        with pytest.raises(SynopsisError):
            build(example1_value, SynopsisSpec(kind="histogram", budget=0, metric="sse"))
        with pytest.raises(SynopsisError):
            build(
                example1_value,
                SynopsisSpec(kind="histogram", budget=2, metric="sse", method="magic"),
            )
        with pytest.raises(SynopsisError):
            build([[1.0, 2.0]], SynopsisSpec(kind="histogram", budget=1, metric="sse"))

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_expected_error_decreases_with_buckets(self, metric):
        model = small_value_pdf(seed=83, domain_size=10)
        specs = [
            SynopsisSpec(kind="histogram", budget=b, metric=metric, sanity=1.0) for b in (1, 3, 10)
        ]
        errors = [expected_error(model, build(model, spec), metric, sanity=1.0) for spec in specs]
        assert errors[0] >= errors[1] - 1e-9 >= errors[2] - 2e-9
