"""Tests for the SSRE, SAE and SARE bucket-cost oracles, plus span validation in every oracle."""

import numpy as np
import pytest

from repro import ValuePdfModel
from repro._compiled import reset_backend
from repro._compiled.backend import BACKEND_ENV
from repro.core.metrics import MetricSpec
from repro.datasets import zipf_value_pdf
from repro.histograms.max_error import MaxAbsoluteCost, MaxAbsoluteRelativeCost
from repro.histograms.sae import SaeCost
from repro.histograms.sare import SareCost
from repro.histograms.sse import SseCost
from repro.histograms.ssre import SsreCost
from repro.exceptions import SynopsisError
from tests.conftest import small_tuple_pdf, small_value_pdf


def bucket_error_by_enumeration(model, start, end, representative, metric, sanity):
    """Expected error of one bucket, via possible-world enumeration."""
    estimates = np.zeros(model.domain_size)
    estimates[start : end + 1] = representative
    spec = MetricSpec.of(metric, sanity)
    total = 0.0
    for world in model.enumerate_worlds():
        errors = np.asarray(spec.point_error(world.frequencies, estimates))
        total += world.probability * float(errors[start : end + 1].sum())
    return total


def brute_force_best_over_grid(model, start, end, metric, sanity, candidates):
    return min(
        bucket_error_by_enumeration(model, start, end, float(c), metric, sanity)
        for c in candidates
    )


def all_spans(n):
    return [(s, e) for s in range(n) for e in range(s, n)]


class TestSsreCost:
    def test_cost_matches_enumeration_at_own_representative(self):
        model = small_value_pdf(seed=31, domain_size=6)
        cost_fn = SsreCost.from_model(model, sanity=0.5)
        for start, end in all_spans(6):
            cost, representative = cost_fn.cost_and_representative(start, end)
            brute = bucket_error_by_enumeration(model, start, end, representative, "ssre", 0.5)
            assert cost == pytest.approx(brute, abs=1e-9)

    def test_representative_is_optimal(self):
        model = small_value_pdf(seed=32, domain_size=5)
        cost_fn = SsreCost.from_model(model, sanity=1.0)
        cost, representative = cost_fn.cost_and_representative(0, 4)
        for candidate in np.linspace(0.0, 5.0, 101):
            assert cost <= bucket_error_by_enumeration(model, 0, 4, candidate, "ssre", 1.0) + 1e-9

    def test_tuple_pdf_via_induced_marginals(self):
        model = small_tuple_pdf(seed=33, domain_size=5)
        cost_fn = SsreCost.from_model(model, sanity=1.0)
        cost, representative = cost_fn.cost_and_representative(1, 3)
        brute = bucket_error_by_enumeration(model, 1, 3, representative, "ssre", 1.0)
        assert cost == pytest.approx(brute, abs=1e-9)

    def test_costs_for_starts_consistent(self):
        model = small_value_pdf(seed=34, domain_size=9)
        cost_fn = SsreCost.from_model(model, sanity=0.5)
        starts = np.arange(0, 8)
        assert np.allclose(
            cost_fn.costs_for_starts(starts, 7),
            [cost_fn.cost(int(s), 7) for s in starts],
        )

    def test_sanity_must_be_positive(self, example1_value):
        with pytest.raises(SynopsisError):
            SsreCost.from_model(example1_value, sanity=0.0)

    def test_deterministic_data_zero_cost_for_constant_bucket(self):
        model = ValuePdfModel.deterministic([2.0, 2.0, 2.0])
        cost_fn = SsreCost.from_model(model)
        assert cost_fn.cost(0, 2) == pytest.approx(0.0)

    def test_sanity_changes_cost(self):
        model = small_value_pdf(seed=35, domain_size=6)
        low = SsreCost.from_model(model, sanity=0.5).cost(0, 5)
        high = SsreCost.from_model(model, sanity=5.0).cost(0, 5)
        assert low != pytest.approx(high)


class TestSaeCost:
    def test_cost_matches_enumeration_at_own_representative(self):
        model = small_value_pdf(seed=41, domain_size=6)
        cost_fn = SaeCost.from_model(model)
        for start, end in all_spans(6):
            cost, representative = cost_fn.cost_and_representative(start, end)
            brute = bucket_error_by_enumeration(model, start, end, representative, "sae", 1.0)
            assert cost == pytest.approx(brute, abs=1e-9)

    def test_representative_is_a_grid_value_and_optimal(self):
        model = small_value_pdf(seed=42, domain_size=5)
        grid = model.to_frequency_distributions().values
        cost_fn = SaeCost.from_model(model)
        cost, representative = cost_fn.cost_and_representative(0, 4)
        assert any(abs(representative - v) < 1e-12 for v in grid)
        best = brute_force_best_over_grid(model, 0, 4, "sae", 1.0, np.linspace(0, grid.max(), 201))
        assert cost == pytest.approx(best, abs=1e-9)

    def test_tuple_pdf_via_induced_marginals(self):
        model = small_tuple_pdf(seed=43, domain_size=5)
        cost_fn = SaeCost.from_model(model)
        cost, representative = cost_fn.cost_and_representative(0, 4)
        brute = bucket_error_by_enumeration(model, 0, 4, representative, "sae", 1.0)
        assert cost == pytest.approx(brute, abs=1e-9)

    def test_costs_for_starts_consistent(self):
        model = small_value_pdf(seed=44, domain_size=10)
        cost_fn = SaeCost.from_model(model)
        starts = np.arange(0, 9)
        assert np.allclose(
            cost_fn.costs_for_starts(starts, 8),
            [cost_fn.cost(int(s), 8) for s in starts],
        )

    def test_weighted_median_simple_case(self):
        # Three certain items 0, 0, 10: the median value 0 beats the mean.
        model = ValuePdfModel.deterministic([0.0, 0.0, 10.0])
        cost_fn = SaeCost.from_model(model)
        cost, representative = cost_fn.cost_and_representative(0, 2)
        assert representative == pytest.approx(0.0)
        assert cost == pytest.approx(10.0)

    def test_monotone_in_span(self):
        model = small_value_pdf(seed=45, domain_size=8)
        cost_fn = SaeCost.from_model(model)
        for start in range(8):
            costs = [cost_fn.cost(start, end) for end in range(start, 8)]
            assert all(b >= a - 1e-9 for a, b in zip(costs, costs[1:]))


class TestSareCost:
    @pytest.mark.parametrize("sanity", [0.5, 1.0, 2.0])
    def test_cost_matches_enumeration_at_own_representative(self, sanity):
        model = small_value_pdf(seed=51, domain_size=5)
        cost_fn = SareCost.from_model(model, sanity=sanity)
        for start, end in all_spans(5):
            cost, representative = cost_fn.cost_and_representative(start, end)
            brute = bucket_error_by_enumeration(model, start, end, representative, "sare", sanity)
            assert cost == pytest.approx(brute, abs=1e-9)

    def test_representative_is_optimal_over_fine_grid(self):
        model = small_value_pdf(seed=52, domain_size=5)
        cost_fn = SareCost.from_model(model, sanity=0.5)
        cost, _ = cost_fn.cost_and_representative(0, 4)
        grid_max = model.to_frequency_distributions().values.max()
        best = brute_force_best_over_grid(
            model, 0, 4, "sare", 0.5, np.linspace(0, grid_max, 201)
        )
        assert cost == pytest.approx(best, abs=1e-9)

    def test_sanity_must_be_positive(self, example1_value):
        with pytest.raises(SynopsisError):
            SareCost.from_model(example1_value, sanity=-1.0)

    def test_relative_weighting_pulls_towards_small_values(self):
        # One item certain at 1, one certain at 10.  With a small sanity
        # constant the relative weights favour representing the small value.
        model = ValuePdfModel.deterministic([1.0, 10.0])
        representative = SareCost.from_model(model, sanity=0.1).representative(0, 1)
        assert representative == pytest.approx(1.0)

    def test_costs_for_starts_consistent(self):
        model = small_value_pdf(seed=53, domain_size=9)
        cost_fn = SareCost.from_model(model, sanity=0.5)
        starts = np.arange(0, 8)
        assert np.allclose(
            cost_fn.costs_for_starts(starts, 7),
            [cost_fn.cost(int(s), 7) for s in starts],
        )

    def test_total_cost_helper(self):
        model = small_value_pdf(seed=54, domain_size=6)
        cost_fn = SareCost.from_model(model, sanity=1.0)
        total = cost_fn.total_cost([(0, 2), (3, 5)])
        assert total == pytest.approx(cost_fn.cost(0, 2) + cost_fn.cost(3, 5))
        with pytest.raises(SynopsisError):
            cost_fn.total_cost([])


@pytest.fixture(params=["resolved", "numpy"])
def span_path(request, monkeypatch):
    """Run on the resolved compiled span costs (if any), then on the numpy path."""
    if request.param == "numpy":
        monkeypatch.setenv(BACKEND_ENV, "none")
    reset_backend()
    yield request.param
    reset_backend()


class TestSpanValidation:
    """Invalid spans raise instead of wrapping around or reading past the arrays."""

    @pytest.mark.parametrize(
        "oracle",
        [SaeCost, SareCost, SseCost, SsreCost, MaxAbsoluteCost, MaxAbsoluteRelativeCost],
    )
    @pytest.mark.parametrize(
        "starts, ends",
        [([-1, 0], [3, 7]), ([0, 2], [3, 8]), ([0, 4], [3, 3])],
        ids=["negative-start", "end-past-domain", "start-after-end"],
    )
    def test_invalid_span_raises(self, span_path, oracle, starts, ends):
        cost_fn = oracle.from_model(zipf_value_pdf(8, seed=1))
        with pytest.raises(SynopsisError, match="invalid bucket span"):
            cost_fn.costs_for_spans(np.array(starts), np.array(ends))

    def test_mismatched_span_arrays_raise(self, span_path):
        cost_fn = SaeCost.from_model(zipf_value_pdf(8, seed=1))
        with pytest.raises(SynopsisError, match="equal-length"):
            cost_fn.costs_for_spans(np.array([0, 1, 2]), np.array([7]))

    def test_valid_spans_unchanged(self, span_path):
        cost_fn = SaeCost.from_model(zipf_value_pdf(8, seed=1))
        costs = cost_fn.costs_for_spans(np.array([0, 0, 7]), np.array([3, 7, 7]))
        assert costs == pytest.approx([cost_fn.cost(0, 3), cost_fn.cost(0, 7), cost_fn.cost(7, 7)])

    def test_total_cost_rejects_invalid_spans(self):
        cost_fn = SareCost.from_model(zipf_value_pdf(8, seed=1))
        with pytest.raises(SynopsisError, match=r"invalid bucket span \[-1, 3\]"):
            cost_fn.total_cost([(-1, 3), (4, 7)])
