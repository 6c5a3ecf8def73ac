"""Property-based tests (hypothesis) for the core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ErrorMetric, SynopsisSpec, ValuePdfModel, build, expected_error, point_error
from repro.histograms.dp import solve_dynamic_program
from repro.histograms.factory import make_cost_function
from repro.models.induced import poisson_binomial_pmf
from repro.wavelets.haar import haar_transform, inverse_haar_transform

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
frequencies = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=32,
)

probabilities = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=0, max_size=12
)


@st.composite
def value_pdf_models(draw, max_items=8, max_outcomes=3, max_value=6):
    """Random small value-pdf models."""
    n = draw(st.integers(min_value=1, max_value=max_items))
    per_item = []
    for _ in range(n):
        count = draw(st.integers(min_value=0, max_value=max_outcomes))
        outcomes = []
        remaining = 1.0
        for _ in range(count):
            value = draw(st.integers(min_value=0, max_value=max_value))
            prob = draw(st.floats(min_value=0.0, max_value=remaining, allow_nan=False))
            remaining -= prob
            outcomes.append((float(value), prob))
        per_item.append(outcomes)
    return ValuePdfModel(per_item)


# ----------------------------------------------------------------------
# Haar transform invariants
# ----------------------------------------------------------------------
class TestHaarProperties:
    @given(frequencies)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, data):
        array = np.asarray(data)
        coefficients = haar_transform(array, normalised=True)
        reconstructed = inverse_haar_transform(coefficients, normalised=True)
        assert np.allclose(reconstructed[: array.size], array, atol=1e-8)

    @given(frequencies)
    @settings(max_examples=60, deadline=None)
    def test_parseval(self, data):
        array = np.asarray(data)
        coefficients = haar_transform(array, normalised=True)
        assert np.isclose(np.sum(coefficients ** 2), np.sum(array ** 2), rtol=1e-9, atol=1e-6)

    @given(frequencies, st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_linearity_in_scaling(self, data, scale):
        array = np.asarray(data)
        assert np.allclose(
            haar_transform(scale * array), scale * haar_transform(array), atol=1e-7
        )


# ----------------------------------------------------------------------
# Poisson-binomial invariants
# ----------------------------------------------------------------------
class TestPoissonBinomialProperties:
    @given(probabilities)
    @settings(max_examples=80, deadline=None)
    def test_pmf_is_a_distribution(self, probs):
        pmf = poisson_binomial_pmf(probs)
        assert pmf.size == len(probs) + 1
        assert np.all(pmf >= 0)
        assert np.isclose(pmf.sum(), 1.0)

    @given(probabilities)
    @settings(max_examples=80, deadline=None)
    def test_mean_and_variance(self, probs):
        pmf = poisson_binomial_pmf(probs)
        support = np.arange(pmf.size)
        mean = support @ pmf
        variance = (support ** 2) @ pmf - mean ** 2
        assert np.isclose(mean, sum(probs), atol=1e-9)
        assert np.isclose(variance, sum(p * (1 - p) for p in probs), atol=1e-8)


# ----------------------------------------------------------------------
# Point-error invariants
# ----------------------------------------------------------------------
class TestPointErrorProperties:
    @given(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        st.sampled_from(list(ErrorMetric)),
    )
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_and_zero_iff_equal(self, actual, estimate, metric):
        error = point_error(actual, estimate, metric, sanity=1.0)
        assert error >= 0.0
        identical = point_error(actual, actual, metric, sanity=1.0)
        assert identical == 0.0


# ----------------------------------------------------------------------
# Model invariants
# ----------------------------------------------------------------------
class TestModelProperties:
    @given(value_pdf_models())
    @settings(max_examples=40, deadline=None)
    def test_world_probabilities_sum_to_one(self, model):
        worlds = model.enumerate_worlds()
        assert np.isclose(sum(w.probability for w in worlds), 1.0, atol=1e-9)

    @given(value_pdf_models())
    @settings(max_examples=40, deadline=None)
    def test_expectations_match_enumeration(self, model):
        worlds = model.enumerate_worlds()
        brute = sum(w.probability * w.frequencies for w in worlds)
        assert np.allclose(model.expected_frequencies(), brute, atol=1e-9)

    @given(value_pdf_models())
    @settings(max_examples=40, deadline=None)
    def test_variances_are_nonnegative(self, model):
        assert np.all(model.frequency_variances() >= -1e-12)


# ----------------------------------------------------------------------
# Histogram invariants
# ----------------------------------------------------------------------
class TestHistogramProperties:
    @given(value_pdf_models(max_items=6), st.integers(min_value=1, max_value=6),
           st.sampled_from(["sse", "sae", "sare"]))
    @settings(max_examples=25, deadline=None)
    def test_histogram_partitions_domain_and_error_bounded(self, model, buckets, metric):
        histogram = build(
            model, SynopsisSpec(kind="histogram", budget=buckets, metric=metric, sanity=1.0)
        )
        assert histogram.boundaries[0][0] == 0
        assert histogram.boundaries[-1][1] == model.domain_size - 1
        error = expected_error(model, histogram, metric, sanity=1.0)
        single = build(model, SynopsisSpec(kind="histogram", budget=1, metric=metric, sanity=1.0))
        assert error <= expected_error(model, single, metric, sanity=1.0) + 1e-9

    @given(value_pdf_models(max_items=6), st.sampled_from(["sse", "ssre", "sae"]))
    @settings(max_examples=25, deadline=None)
    def test_dp_errors_monotone_in_budget(self, model, metric):
        cost_fn = make_cost_function(model, metric, sanity=1.0)
        dp = solve_dynamic_program(cost_fn, model.domain_size)
        errors = [dp.optimal_error(b) for b in range(1, model.domain_size + 1)]
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))
