"""Tests for the (1 + eps)-approximate histogram construction."""

import numpy as np
import pytest

from repro import SynopsisSpec, build, expected_error
from repro.exceptions import SynopsisError
from repro.histograms.approx import approximate_boundaries, approximate_histogram
from repro.histograms.dp import solve_dynamic_program
from repro.histograms.factory import make_cost_function
from tests.conftest import small_basic, small_value_pdf


CUMULATIVE_METRICS = ["sse", "ssre", "sae", "sare"]


class TestApproximationGuarantee:
    @pytest.mark.parametrize("metric", CUMULATIVE_METRICS)
    @pytest.mark.parametrize("epsilon", [0.05, 0.25])
    def test_cost_within_factor_of_optimal(self, metric, epsilon):
        model = small_value_pdf(seed=91, domain_size=16)
        cost_fn = make_cost_function(model, metric, sanity=1.0)
        for buckets in (2, 4):
            optimal = solve_dynamic_program(cost_fn, buckets).optimal_error(buckets)
            approx = cost_fn.total_cost(approximate_boundaries(cost_fn, buckets, epsilon))
            assert approx <= (1.0 + epsilon) * optimal + 1e-9

    def test_basic_model_input(self):
        model = small_basic(seed=92, domain_size=12, tuple_count=20)
        cost_fn = make_cost_function(model, "sse")
        optimal = solve_dynamic_program(cost_fn, 3).optimal_error(3)
        approx = cost_fn.total_cost(approximate_boundaries(cost_fn, 3, 0.1))
        assert approx <= 1.1 * optimal + 1e-9

    def test_never_better_than_optimal(self):
        model = small_value_pdf(seed=93, domain_size=12)
        cost_fn = make_cost_function(model, "sae")
        optimal = solve_dynamic_program(cost_fn, 4).optimal_error(4)
        approx = cost_fn.total_cost(approximate_boundaries(cost_fn, 4, 0.2))
        assert approx >= optimal - 1e-9


class TestApproximateStructure:
    def test_boundaries_form_partition(self):
        model = small_value_pdf(seed=94, domain_size=20)
        cost_fn = make_cost_function(model, "ssre", sanity=0.5)
        spans = approximate_boundaries(cost_fn, 5, 0.1)
        assert spans[0][0] == 0 and spans[-1][1] == 19
        for (_, left_end), (right_start, _) in zip(spans, spans[1:]):
            assert right_start == left_end + 1

    def test_histogram_wrapper_attaches_representatives(self):
        model = small_value_pdf(seed=95, domain_size=12)
        cost_fn = make_cost_function(model, "sse")
        histogram = approximate_histogram(cost_fn, 3, 0.1)
        assert histogram.bucket_count <= 12
        assert np.isfinite(histogram.representatives).all()

    def test_single_bucket_budget(self):
        model = small_value_pdf(seed=96, domain_size=8)
        cost_fn = make_cost_function(model, "sse")
        spans = approximate_boundaries(cost_fn, 1, 0.1)
        assert spans == [(0, 7)]

    def test_rejects_maximum_metrics(self):
        model = small_value_pdf(seed=97, domain_size=8)
        cost_fn = make_cost_function(model, "mae")
        with pytest.raises(SynopsisError):
            approximate_boundaries(cost_fn, 2, 0.1)

    def test_rejects_non_positive_epsilon(self):
        model = small_value_pdf(seed=98, domain_size=8)
        cost_fn = make_cost_function(model, "sse")
        with pytest.raises(SynopsisError):
            approximate_boundaries(cost_fn, 2, 0.0)

    def test_build_histogram_approximate_method(self):
        model = small_value_pdf(seed=99, domain_size=16)
        exact = build(model, SynopsisSpec(kind="histogram", budget=4, metric="sse"))
        approx = build(
            model,
            SynopsisSpec(
                kind="histogram", budget=4, metric="sse", method="approximate", epsilon=0.1
            ),
        )
        exact_error = expected_error(model, exact, "sse")
        approx_error = expected_error(model, approx, "sse")
        assert approx_error <= 1.1 * exact_error + 1e-9

    def test_zero_error_input(self):
        # Constant certain data: every bucketing has zero error and the
        # candidate-thinning must still produce a valid partition.
        from repro import FrequencyDistributions

        cost_fn = make_cost_function(FrequencyDistributions.deterministic(np.full(10, 3.0)), "sse")
        spans = approximate_boundaries(cost_fn, 3, 0.1)
        assert spans[0][0] == 0 and spans[-1][1] == 9
