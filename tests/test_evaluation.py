"""Tests for the expected-error evaluation engine against the exhaustive oracle."""

import numpy as np
import pytest

from repro import Bucket, ErrorMetric, Histogram, SynopsisSpec, WaveletSynopsis, build
from repro.evaluation import (
    estimates_of,
    exhaustive_expected_error,
    expected_error,
    normalised_error_percentage,
    per_item_expected_errors,
)
from repro.exceptions import EvaluationError
from tests.conftest import small_basic, small_tuple_pdf, small_value_pdf

ALL_METRICS = list(ErrorMetric)


class TestClosedFormAgainstExhaustive:
    @pytest.mark.parametrize("metric", ALL_METRICS, ids=[m.value for m in ALL_METRICS])
    @pytest.mark.parametrize(
        "factory", [small_value_pdf, small_tuple_pdf, small_basic], ids=["value", "tuple", "basic"]
    )
    def test_expected_error_matches_enumeration(self, metric, factory):
        model = factory(seed=111, domain_size=6)
        rng = np.random.default_rng(0)
        estimates = rng.uniform(0.0, 3.0, size=model.domain_size)
        closed = expected_error(model, estimates, metric, sanity=0.5)
        brute = exhaustive_expected_error(model, estimates, metric, sanity=0.5)
        assert closed == pytest.approx(brute, abs=1e-9)

    def test_histogram_and_wavelet_synopses_accepted(self, example1_value):
        histogram = build(example1_value, SynopsisSpec(kind="histogram", budget=2, metric="sse"))
        assert expected_error(example1_value, histogram, "sse") == pytest.approx(
            exhaustive_expected_error(example1_value, histogram, "sse")
        )
        synopsis = WaveletSynopsis({0: 1.0}, domain_size=3)
        assert expected_error(example1_value, synopsis, "sae") == pytest.approx(
            exhaustive_expected_error(example1_value, synopsis, "sae")
        )

    def test_perfect_estimates_of_certain_data_have_zero_error(self):
        from repro import ValuePdfModel

        model = ValuePdfModel.deterministic([1.0, 2.0, 3.0])
        for metric in ALL_METRICS:
            assert expected_error(model, [1.0, 2.0, 3.0], metric) == pytest.approx(0.0)


class TestPerItemErrors:
    def test_cumulative_is_sum_of_per_item(self, example1_tuple):
        estimates = np.array([0.5, 0.5, 0.5])
        per_item = per_item_expected_errors(example1_tuple, estimates, "sae")
        assert expected_error(example1_tuple, estimates, "sae") == pytest.approx(per_item.sum())

    def test_maximum_is_max_of_per_item(self, example1_tuple):
        estimates = np.array([0.5, 0.5, 0.5])
        per_item = per_item_expected_errors(example1_tuple, estimates, "mae")
        assert expected_error(example1_tuple, estimates, "mae") == pytest.approx(per_item.max())

    def test_known_value(self, example1_value):
        # Item 1 of the value-pdf Example 1: Pr[1]=1/3, Pr[2]=1/4, Pr[0]=5/12.
        # With estimate 1 the expected absolute error is 1/4 + 5/12 = 2/3.
        per_item = per_item_expected_errors(example1_value, [0.0, 1.0, 0.0], "sae")
        assert per_item[1] == pytest.approx(2.0 / 3.0)

    def test_accepts_frequency_distributions(self, example1_value):
        distributions = example1_value.to_frequency_distributions()
        per_item = per_item_expected_errors(distributions, [0.0, 0.0, 0.0], "sse")
        assert per_item.shape == (3,)


class TestValidation:
    def test_estimates_length_mismatch(self, example1_value):
        with pytest.raises(EvaluationError):
            expected_error(example1_value, [1.0, 2.0], "sse")

    def test_estimates_must_be_one_dimensional(self, example1_value):
        with pytest.raises(EvaluationError):
            expected_error(example1_value, np.ones((3, 1)), "sse")

    def test_data_type_checked(self):
        with pytest.raises(EvaluationError):
            expected_error("not a model", [1.0], "sse")

    def test_estimates_of_histogram(self):
        histogram = Histogram([Bucket(0, 1, 2.0)], domain_size=2)
        assert np.allclose(estimates_of(histogram, 2), [2.0, 2.0])
        with pytest.raises(EvaluationError):
            estimates_of(histogram, 3)


class TestNormalisedPercentage:
    def test_interpolates(self):
        assert normalised_error_percentage(5.0, 0.0, 10.0) == pytest.approx(50.0)

    def test_at_bounds(self):
        assert normalised_error_percentage(2.0, 2.0, 8.0) == pytest.approx(0.0)
        assert normalised_error_percentage(8.0, 2.0, 8.0) == pytest.approx(100.0)

    def test_degenerate_range(self):
        assert normalised_error_percentage(3.0, 3.0, 3.0) == 0.0
