"""Tests for the query-workload extension (workload-weighted objectives).

The paper's concluding remarks identify workload-aware synopses (a
distribution over queries in addition to the distribution over data) as an
open direction; the library implements per-item query weights across the
histogram oracles, the restricted wavelet DP and the evaluation engine.
These tests check the weighted machinery against brute force and verify that
the uniform workload reproduces the unweighted behaviour exactly.
"""

import itertools

import numpy as np
import pytest

from repro import (
    ErrorMetric,
    QueryWorkload,
    SynopsisSpec,
    ValuePdfModel,
    build,
    expected_error,
    per_item_expected_errors,
)
from repro.core.metrics import MetricSpec
from repro.exceptions import EvaluationError, SynopsisError
from repro.histograms.dp import solve_dynamic_program
from repro.histograms.factory import make_cost_function
from tests.conftest import small_tuple_pdf, small_value_pdf

ALL_METRICS = ["sse", "ssre", "sae", "sare", "mae", "mare"]


class TestQueryWorkloadObject:
    def test_basic_properties(self):
        workload = QueryWorkload([1.0, 2.0, 0.0])
        assert workload.domain_size == 3 and len(workload) == 3
        assert np.allclose(workload.weights, [1.0, 2.0, 0.0])

    def test_weights_read_only(self):
        workload = QueryWorkload([1.0, 2.0])
        with pytest.raises(ValueError):
            workload.weights[0] = 5.0

    def test_validation(self):
        with pytest.raises(EvaluationError):
            QueryWorkload([])
        with pytest.raises(EvaluationError):
            QueryWorkload([-1.0, 2.0])
        with pytest.raises(EvaluationError):
            QueryWorkload([0.0, 0.0])
        with pytest.raises(EvaluationError):
            QueryWorkload([np.inf, 1.0])

    def test_uniform(self):
        assert np.allclose(QueryWorkload.uniform(4).weights, 1.0)
        with pytest.raises(EvaluationError):
            QueryWorkload.uniform(0)

    def test_normalised(self):
        workload = QueryWorkload([1.0, 3.0]).normalised()
        assert workload.weights.sum() == pytest.approx(2.0)

    def test_coerce(self):
        assert QueryWorkload.coerce(None, 5) is None
        coerced = QueryWorkload.coerce([1.0, 2.0], 2)
        assert isinstance(coerced, QueryWorkload)
        with pytest.raises(EvaluationError):
            QueryWorkload.coerce([1.0, 2.0], 3)

    def test_from_query_ranges(self):
        workload = QueryWorkload.from_query_ranges([(0, 1), (1, 2, 3.0)], 4, smoothing=0.5)
        assert np.allclose(workload.weights, [1.5, 4.5, 3.5, 0.5])
        with pytest.raises(EvaluationError):
            QueryWorkload.from_query_ranges([(2, 5)], 4)

    def test_zipf_hotspot(self):
        workload = QueryWorkload.zipf_hotspot(10, skew=1.0, hotspot=4)
        assert int(np.argmax(workload.weights)) == 4
        with pytest.raises(EvaluationError):
            QueryWorkload.zipf_hotspot(10, hotspot=20)

    def test_restricted_to(self):
        workload = QueryWorkload([1.0, 2.0, 3.0])
        assert np.allclose(workload.restricted_to(1, 2), [2.0, 3.0])
        with pytest.raises(EvaluationError):
            workload.restricted_to(2, 1)

    def test_equality_and_repr(self):
        assert QueryWorkload([1.0, 2.0]) == QueryWorkload([1.0, 2.0])
        assert QueryWorkload([1.0, 2.0]) != QueryWorkload([2.0, 1.0])
        assert QueryWorkload([1.0]).__eq__(3) is NotImplemented
        assert "QueryWorkload" in repr(QueryWorkload([1.0, 2.0]))


class TestWeightedEvaluation:
    def test_weighted_errors_scale_per_item(self, example1_value):
        estimates = np.array([0.3, 0.7, 0.1])
        workload = QueryWorkload([2.0, 0.5, 1.0])
        unweighted = per_item_expected_errors(example1_value, estimates, "sae")
        weighted = per_item_expected_errors(example1_value, estimates, "sae", workload=workload)
        assert np.allclose(weighted, unweighted * workload.weights)

    def test_weighted_expected_error_matches_enumeration(self):
        model = small_value_pdf(seed=201, domain_size=5)
        weights = np.array([3.0, 0.0, 1.0, 2.0, 0.5])
        estimates = np.array([0.5, 1.0, 0.0, 2.0, 1.5])
        spec = MetricSpec.of("sare", 0.5)
        closed = expected_error(model, estimates, spec, workload=weights)
        brute = 0.0
        for world in model.enumerate_worlds():
            errors = np.asarray(spec.point_error(world.frequencies, estimates))
            brute += world.probability * float((weights * errors).sum())
        assert closed == pytest.approx(brute, abs=1e-9)

    def test_uniform_workload_matches_unweighted(self, example1_tuple):
        estimates = np.array([0.4, 0.6, 0.2])
        for metric in ALL_METRICS:
            unweighted = expected_error(example1_tuple, estimates, metric, sanity=1.0)
            uniform = expected_error(
                example1_tuple, estimates, metric, sanity=1.0,
                workload=QueryWorkload.uniform(3),
            )
            assert uniform == pytest.approx(unweighted)

    def test_workload_length_checked(self, example1_value):
        with pytest.raises(EvaluationError):
            expected_error(example1_value, [0.0, 0.0, 0.0], "sse", workload=[1.0, 2.0])


class TestWeightedBucketCosts:
    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_uniform_workload_reproduces_unweighted_costs(self, metric):
        model = small_value_pdf(seed=202, domain_size=6)
        plain = make_cost_function(model, metric, sanity=0.5)
        uniform = make_cost_function(
            model, metric, sanity=0.5, workload=QueryWorkload.uniform(6)
        )
        for start in range(6):
            for end in range(start, 6):
                assert plain.cost(start, end) == pytest.approx(uniform.cost(start, end), abs=1e-9)

    @pytest.mark.parametrize("metric", ["sse", "ssre", "sae", "sare"])
    def test_weighted_cost_matches_enumeration_at_own_representative(self, metric):
        model = small_value_pdf(seed=203, domain_size=5)
        weights = np.array([2.0, 0.5, 0.0, 1.5, 3.0])
        spec = MetricSpec.of(metric, 1.0)
        cost_fn = make_cost_function(model, spec, workload=weights)
        for start in range(5):
            for end in range(start, 5):
                cost, representative = cost_fn.cost_and_representative(start, end)
                estimates = np.zeros(5)
                estimates[start : end + 1] = representative
                brute = 0.0
                for world in model.enumerate_worlds():
                    errors = np.asarray(spec.point_error(world.frequencies, estimates))
                    brute += world.probability * float(
                        (weights[start : end + 1] * errors[start : end + 1]).sum()
                    )
                assert cost == pytest.approx(brute, abs=1e-9), (metric, start, end)

    def test_weighted_max_error_cost(self):
        model = small_value_pdf(seed=204, domain_size=4)
        weights = np.array([5.0, 1.0, 0.0, 2.0])
        cost_fn = make_cost_function(model, "mae", workload=weights)
        cost, representative = cost_fn.cost_and_representative(0, 3)
        per_item = per_item_expected_errors(
            model, np.full(4, representative), "mae", workload=weights
        )
        assert cost == pytest.approx(per_item.max(), abs=1e-6)

    def test_weighted_costs_for_starts_consistent(self):
        model = small_value_pdf(seed=205, domain_size=8)
        weights = np.linspace(0.0, 2.0, 8)
        for metric in ["sse", "ssre", "sae", "sare"]:
            cost_fn = make_cost_function(model, metric, workload=weights)
            starts = np.arange(0, 7)
            assert np.allclose(
                cost_fn.costs_for_starts(starts, 6),
                [cost_fn.cost(int(s), 6) for s in starts],
            )

    def test_paper_sse_variant_rejects_workload(self):
        model = small_tuple_pdf(seed=206, domain_size=5)
        from repro.histograms.sse import SseCost

        with pytest.raises(SynopsisError):
            SseCost.from_model(model, variant="paper", workload=np.ones(5))

    def test_zero_weight_bucket_is_free(self):
        model = small_value_pdf(seed=207, domain_size=4)
        weights = np.array([0.0, 0.0, 1.0, 1.0])
        for metric in ["sse", "ssre", "sae"]:
            cost_fn = make_cost_function(model, metric, workload=weights)
            assert cost_fn.cost(0, 1) == pytest.approx(0.0)


class TestWorkloadAwareConstruction:
    @pytest.mark.parametrize("metric", ["sse", "sae", "sare"])
    def test_dp_optimal_under_weighted_objective(self, metric):
        model = small_value_pdf(seed=208, domain_size=7)
        weights = np.array([4.0, 0.5, 0.1, 3.0, 0.2, 2.0, 1.0])
        cost_fn = make_cost_function(model, metric, sanity=1.0, workload=weights)
        dp = solve_dynamic_program(cost_fn, 3)
        best = np.inf
        for cut_points in itertools.combinations(range(1, 7), 2):
            edges = [0, *cut_points, 7]
            bucketing = [(edges[k], edges[k + 1] - 1) for k in range(3)]
            best = min(best, cost_fn.total_cost(bucketing))
        assert dp.optimal_error(3) == pytest.approx(best, abs=1e-9)

    def test_workload_changes_the_optimal_bucketing(self):
        # Two regimes of items; the workload only cares about the first half,
        # so the weighted histogram spends its buckets there.
        model = ValuePdfModel.deterministic([1.0, 5.0, 9.0, 13.0, 20.0, 20.0, 20.0, 20.0])
        hot = QueryWorkload([1.0, 1.0, 1.0, 1.0, 1e-6, 1e-6, 1e-6, 1e-6])
        plain = build(model, SynopsisSpec(kind="histogram", budget=3, metric="sse"))
        weighted = build(
            model, SynopsisSpec(kind="histogram", budget=3, metric="sse", workload=hot)
        )
        assert weighted.boundaries != plain.boundaries
        weighted_error = expected_error(model, weighted, "sse", workload=hot)
        plain_error = expected_error(model, plain, "sse", workload=hot)
        assert weighted_error <= plain_error + 1e-9

    def test_build_histogram_with_workload_never_loses(self):
        model = small_value_pdf(seed=209, domain_size=10)
        workload = QueryWorkload.zipf_hotspot(10, skew=1.5, hotspot=2)
        for metric in ["sse", "sare"]:
            weighted = build(
                model, SynopsisSpec(kind="histogram", budget=3, metric=metric, workload=workload)
            )
            plain = build(model, SynopsisSpec(kind="histogram", budget=3, metric=metric))
            weighted_error = expected_error(model, weighted, metric, workload=workload)
            plain_error = expected_error(model, plain, metric, workload=workload)
            assert weighted_error <= plain_error + 1e-9

    def test_workload_aware_wavelet_matches_brute_force(self):
        model = small_value_pdf(seed=210, domain_size=4, max_frequency=3)
        weights = np.array([3.0, 0.5, 1.0, 0.0])
        budget = 2
        synopsis = build(
            model, SynopsisSpec(kind="wavelet", budget=budget, metric="sae", workload=weights)
        )
        from repro.wavelets.coefficients import expected_coefficients
        from repro import WaveletSynopsis

        mu = expected_coefficients(model)
        best = np.inf
        for size in range(budget + 1):
            for subset in itertools.combinations(range(mu.size), size):
                candidate = WaveletSynopsis(
                    {int(i): float(mu[i]) for i in subset}, domain_size=4
                )
                best = min(
                    best, expected_error(model, candidate, "sae", workload=weights)
                )
        achieved = expected_error(model, synopsis, "sae", workload=weights)
        assert achieved == pytest.approx(best, abs=1e-9)

    def test_workload_aware_sse_wavelet_uses_restricted_dp(self):
        model = small_value_pdf(seed=211, domain_size=4)
        workload = QueryWorkload([5.0, 1.0, 1.0, 1.0])
        synopsis = build(
            model, SynopsisSpec(kind="wavelet", budget=2, metric=ErrorMetric.SSE, workload=workload)
        )
        assert synopsis.term_count <= 2
