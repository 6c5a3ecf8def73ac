"""Tests for expected coefficients, SSE-optimal thresholding and the non-SSE DP."""

import itertools

import numpy as np
import pytest

from repro import ErrorMetric, SynopsisSpec, WaveletSynopsis, build, expected_error
from repro.evaluation import exhaustive_expected_error
from repro.wavelets.coefficients import (
    coefficient_second_moments,
    coefficient_variances,
    expected_coefficients,
)
from repro.wavelets.haar import haar_transform
from repro.wavelets.nonsse import RestrictedWaveletDP
from repro.wavelets.sse import (
    expected_sse_of_selection,
    sse_optimal_wavelet,
    top_coefficient_indices,
)
from tests.conftest import small_tuple_pdf, small_value_pdf


class TestExpectedCoefficients:
    def test_equals_transform_of_expectations(self, example1_value):
        mu = expected_coefficients(example1_value)
        direct = haar_transform(example1_value.expected_frequencies(), normalised=True)
        assert np.allclose(mu, direct)

    def test_linearity_over_worlds(self, example1_tuple):
        # E[c] must equal the probability-weighted average of per-world transforms.
        worlds = example1_tuple.enumerate_worlds()
        averaged = sum(
            w.probability * haar_transform(w.frequencies, normalised=True) for w in worlds
        )
        assert np.allclose(expected_coefficients(example1_tuple), averaged)

    def test_deterministic_input_accepted(self):
        data = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(expected_coefficients(data), haar_transform(data))


class TestCoefficientVariances:
    @pytest.mark.parametrize("factory", [small_value_pdf, small_tuple_pdf])
    def test_matches_enumeration(self, factory):
        model = factory(seed=11)
        worlds = model.enumerate_worlds()
        transforms = np.stack(
            [haar_transform(w.frequencies, normalised=True) for w in worlds]
        )
        probabilities = np.array([w.probability for w in worlds])
        mean = probabilities @ transforms
        second = probabilities @ (transforms ** 2)
        assert np.allclose(coefficient_variances(model), second - mean ** 2, atol=1e-9)

    def test_total_variance_preserved(self, example1_tuple):
        total = coefficient_variances(example1_tuple).sum()
        padded_item_variance = example1_tuple.frequency_variances().sum()
        assert total == pytest.approx(padded_item_variance)

    def test_second_moments(self, example1_value):
        mu = expected_coefficients(example1_value)
        assert np.allclose(
            coefficient_second_moments(example1_value),
            coefficient_variances(example1_value) + mu ** 2,
        )


class TestTopCoefficientSelection:
    def test_selects_largest_magnitudes(self):
        coefficients = np.array([0.1, -5.0, 2.0, 0.0])
        assert list(top_coefficient_indices(coefficients, 2)) == [1, 2]

    def test_zero_budget(self):
        assert top_coefficient_indices(np.array([1.0, 2.0]), 0).size == 0

    def test_budget_larger_than_length(self):
        assert list(top_coefficient_indices(np.array([1.0, 2.0]), 5)) == [0, 1]

    def test_ties_prefer_lower_index(self):
        selected = top_coefficient_indices(np.array([1.0, 1.0, 1.0, 1.0]), 2)
        assert list(selected) == [0, 1]

    def test_negative_budget_rejected(self):
        from repro.exceptions import SynopsisError

        with pytest.raises(SynopsisError):
            top_coefficient_indices(np.array([1.0]), -1)


class TestSseOptimalWavelet:
    def test_error_decreases_with_budget(self, example1_value):
        errors = [
            expected_error(example1_value, sse_optimal_wavelet(example1_value, b), "sse")
            for b in range(0, 5)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    def test_full_budget_reaches_variance_floor(self, example1_value):
        synopsis = sse_optimal_wavelet(example1_value, 4)
        error = expected_error(example1_value, synopsis, "sse")
        # With every coefficient kept at its expected value the remaining SSE
        # is exactly the total frequency variance.
        assert error == pytest.approx(example1_value.frequency_variances().sum())

    @pytest.mark.parametrize("factory", [small_value_pdf, small_tuple_pdf])
    def test_optimal_among_all_selections(self, factory):
        model = factory(seed=7)
        mu = expected_coefficients(model)
        budget = 2
        optimal = sse_optimal_wavelet(model, budget)
        optimal_error = expected_error(model, optimal, "sse")
        for subset in itertools.combinations(range(mu.size), budget):
            candidate = WaveletSynopsis(
                {int(i): float(mu[i]) for i in subset}, domain_size=model.domain_size
            )
            assert optimal_error <= expected_error(model, candidate, "sse") + 1e-9

    def test_expected_sse_of_selection_matches_evaluation(self):
        # Over a power-of-two domain (no padding) the coefficient-domain and
        # item-domain computations agree exactly, for a correlated tuple model too.
        from repro import TuplePdfModel

        model = TuplePdfModel(
            [[(0, 0.5), (1, 1.0 / 3.0)], [(1, 0.25), (2, 0.5)], [(3, 0.75)]],
            domain_size=4,
        )
        synopsis = sse_optimal_wavelet(model, 2)
        assert expected_sse_of_selection(model, synopsis) == pytest.approx(
            expected_error(model, synopsis, "sse")
        )

    def test_expected_sse_of_selection_counts_padding_items(self, example1_tuple):
        # With n = 3 the transform pads to length 4; the coefficient-domain
        # figure includes the padded position and therefore dominates the
        # item-domain evaluation.
        synopsis = sse_optimal_wavelet(example1_tuple, 2)
        assert expected_sse_of_selection(example1_tuple, synopsis) >= expected_error(
            example1_tuple, synopsis, "sse"
        ) - 1e-12

    def test_matches_exhaustive_evaluation(self, example1_value):
        synopsis = sse_optimal_wavelet(example1_value, 2)
        assert expected_error(example1_value, synopsis, "sse") == pytest.approx(
            exhaustive_expected_error(example1_value, synopsis, "sse")
        )

    def test_build_wavelet_entry_point(self, example1_value):
        synopsis = build(
            example1_value, SynopsisSpec(kind="wavelet", budget=2, metric=ErrorMetric.SSE)
        )
        assert synopsis == sse_optimal_wavelet(example1_value, 2)

    def test_deterministic_data_entry_point(self):
        data = [3.0, 3.0, 1.0, 1.0]
        synopsis = build(data, SynopsisSpec(kind="wavelet", budget=2, metric="sse"))
        assert np.allclose(synopsis.estimates(), data)

    def test_domain_size_override(self, example1_value):
        synopsis = sse_optimal_wavelet(example1_value, 1, domain_size=3)
        assert synopsis.domain_size == 3
        from repro.exceptions import SynopsisError

        with pytest.raises(SynopsisError):
            sse_optimal_wavelet(example1_value, 1, domain_size=2)


class TestRestrictedNonSseDP:
    @pytest.mark.parametrize("metric", ["sae", "sare", "mae"])
    def test_matches_brute_force_over_subsets(self, metric):
        model = small_value_pdf(seed=5, domain_size=4, max_frequency=3)
        distributions = model.to_frequency_distributions()
        mu = expected_coefficients(distributions)
        budget = 2
        dp_error, dp_synopsis = RestrictedWaveletDP(distributions, metric, sanity=1.0).solve(budget)

        best = np.inf
        for size in range(budget + 1):
            for subset in itertools.combinations(range(mu.size), size):
                candidate = WaveletSynopsis(
                    {int(i): float(mu[i]) for i in subset}, domain_size=model.domain_size
                )
                best = min(best, expected_error(model, candidate, metric, sanity=1.0))
        assert dp_error == pytest.approx(best, abs=1e-9)
        assert expected_error(model, dp_synopsis, metric, sanity=1.0) == pytest.approx(
            best, abs=1e-9
        )

    def test_error_monotone_in_budget(self):
        model = small_value_pdf(seed=9, domain_size=4)
        distributions = model.to_frequency_distributions()
        dp = RestrictedWaveletDP(distributions, "sare", sanity=0.5)
        errors = [dp.solve(b)[0] for b in range(0, 5)]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    def test_budget_respected(self):
        model = small_value_pdf(seed=13, domain_size=8)
        _, synopsis = RestrictedWaveletDP(model.to_frequency_distributions(), "sae").solve(3)
        assert synopsis.term_count <= 3

    def test_negative_budget_rejected(self):
        model = small_value_pdf(seed=1, domain_size=4)
        from repro.exceptions import SynopsisError

        with pytest.raises(SynopsisError):
            RestrictedWaveletDP(model.to_frequency_distributions(), "sae").solve(-1)

    def test_build_wavelet_dispatches_to_dp(self):
        model = small_value_pdf(seed=2, domain_size=4)
        synopsis = build(model, SynopsisSpec(kind="wavelet", budget=2, metric="sae"))
        assert isinstance(synopsis, WaveletSynopsis)
        assert synopsis.term_count <= 2
