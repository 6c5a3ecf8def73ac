"""Kernel-equivalence tests: every DP kernel finds the same optimum.

The engine's contract is that kernel choice can never change the result —
only the wall clock.  These tests pin that down three ways:

* a parametrised matrix over every metric, both pdf models and all budgets
  ``1..n``, asserting *bit-identical* optimal errors between the kernels and
  structurally valid bucketings of equal cost;
* dedicated fast-path tests on ordered inputs, where the oracles certify
  monotone split points and the divide-and-conquer kernel actually runs
  (rather than falling back);
* hypothesis property tests over random value-pdf models.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SynopsisSpec, ValuePdfModel, build
from repro.exceptions import SynopsisError
from repro.histograms import (
    DivideConquerKernel,
    ExactKernel,
    VectorizedKernel,
    available_kernels,
    get_kernel,
    make_cost_function,
    resolve_kernel,
    solve_dynamic_program,
)
from tests.conftest import small_tuple_pdf, small_value_pdf

CUMULATIVE_METRICS = ["sse", "ssre", "sae", "sare"]
MAX_METRICS = ["mae", "mare"]
ALL_METRICS = CUMULATIVE_METRICS + MAX_METRICS
PURE_KERNELS = ["exact", "vectorized", "divide_conquer"]
# Compiled kernels join the equivalence matrix whenever a backend exists in
# this environment; without one, resolve_kernel falls back (tested in
# tests/test_compiled_kernels.py) and re-checking the numpy kernels here
# would be redundant.
COMPILED_KERNELS = [
    name
    for name in ("compiled_vectorized", "compiled_divide_conquer")
    if name in available_kernels()
]
KERNELS = PURE_KERNELS + COMPILED_KERNELS


def assert_kernels_agree(cost_fn, max_buckets=None):
    """All kernels (resolved with fallback) return bit-identical optima and
    valid bucketings of matching cost for every budget."""
    n = cost_fn.domain_size
    max_buckets = max_buckets or n
    reference = get_kernel("exact").solve(cost_fn, max_buckets)
    for name in KERNELS:
        result = solve_dynamic_program(cost_fn, max_buckets, kernel=name)
        for buckets in range(1, min(max_buckets, n) + 1):
            expected = reference.optimal_error(buckets)
            actual = result.optimal_error(buckets)
            assert actual == expected, (
                f"kernel {name!r}: budget {buckets}: {actual!r} != exact {expected!r}"
            )
            spans = result.boundaries(buckets)
            assert spans[0][0] == 0 and spans[-1][1] == n - 1
            for (_, left_end), (right_start, _) in zip(spans, spans[1:]):
                assert right_start == left_end + 1
            assert cost_fn.total_cost(spans) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestKernelEquivalenceMatrix:
    """Random (unordered) models: every metric, both pdf models, budgets 1..n."""

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize(
        "factory", [small_value_pdf, small_tuple_pdf], ids=["value_pdf", "tuple_pdf"]
    )
    def test_all_kernels_identical_optima(self, metric, factory):
        model = factory(seed=901, domain_size=9)
        cost_fn = make_cost_function(model, metric, sanity=0.5)
        assert_kernels_agree(cost_fn)

    @pytest.mark.parametrize("metric", CUMULATIVE_METRICS)
    def test_workload_weighted_equivalence(self, metric):
        model = small_value_pdf(seed=902, domain_size=8)
        weights = np.random.default_rng(902).uniform(0.0, 2.0, 8)
        cost_fn = make_cost_function(model, metric, sanity=1.0, workload=weights)
        assert_kernels_agree(cost_fn)

    def test_paper_sse_variant_equivalence(self):
        model = small_tuple_pdf(seed=903, domain_size=7)
        cost_fn = make_cost_function(model, "sse", sse_variant="paper")
        # The straddle corrections void the monotone-split certificate ...
        assert not cost_fn.supports_monotone_splits
        # ... but requesting divide_conquer must still return the optimum.
        assert_kernels_agree(cost_fn)

    def test_deterministic_vector_equivalence(self):
        frequencies = np.random.default_rng(904).uniform(0.0, 20.0, 10)
        for metric in CUMULATIVE_METRICS:
            cost_fn = make_cost_function(
                __import__("repro").FrequencyDistributions.deterministic(frequencies),
                metric,
                sanity=1.0,
            )
            assert_kernels_agree(cost_fn)


class TestDivideConquerFastPath:
    """Ordered inputs certify monotone splits; the D&C kernel runs for real."""

    @pytest.mark.parametrize("metric", CUMULATIVE_METRICS)
    @pytest.mark.parametrize("direction", ["increasing", "decreasing"])
    def test_sorted_deterministic_runs_divide_conquer(self, metric, direction):
        frequencies = np.sort(np.random.default_rng(905).uniform(0.0, 30.0, 12))
        if direction == "decreasing":
            frequencies = frequencies[::-1].copy()
        cost_fn = make_cost_function(
            __import__("repro").FrequencyDistributions.deterministic(frequencies),
            metric,
            sanity=1.0,
        )
        assert cost_fn.supports_monotone_splits
        assert DivideConquerKernel().supports(cost_fn)
        # ``auto`` takes a divide-and-conquer fast path — the compiled one
        # when a backend is available and the oracle exports prefix arrays,
        # the numpy one otherwise.
        assert resolve_kernel("auto", cost_fn).name.endswith("divide_conquer")
        assert_kernels_agree(cost_fn)

    @pytest.mark.parametrize("metric", ["sse", "ssre"])
    def test_rank_ordered_value_pdf_runs_divide_conquer(self, metric):
        model = small_value_pdf(seed=906, domain_size=10)
        dists = model.to_frequency_distributions()
        order = np.argsort(model.expected_frequencies())
        ranked = type(dists)(dists.grid, dists.probabilities[order])
        cost_fn = make_cost_function(ranked, metric, sanity=1.0)
        if not cost_fn.supports_monotone_splits:
            pytest.skip("sorting expectations did not certify this oracle")
        assert DivideConquerKernel().supports(cost_fn)
        assert_kernels_agree(cost_fn)

    def test_unordered_input_falls_back(self):
        model = small_value_pdf(seed=907, domain_size=9)
        cost_fn = make_cost_function(model, "sse")
        assert not DivideConquerKernel().supports(cost_fn)
        # Asking for divide_conquer by name resolves to a safe kernel ...
        assert resolve_kernel("divide_conquer", cost_fn).name != "divide_conquer"
        # ... and calling the kernel directly refuses instead of mis-solving.
        with pytest.raises(SynopsisError):
            DivideConquerKernel().solve(cost_fn, 3)


class TestMaxAggregationBudgetSweep:
    """The max-error DP path: budgets 1..n through every kernel request."""

    @pytest.mark.parametrize("metric", MAX_METRICS)
    @pytest.mark.parametrize(
        "factory", [small_value_pdf, small_tuple_pdf], ids=["value_pdf", "tuple_pdf"]
    )
    def test_budget_sweep_identical(self, metric, factory):
        model = factory(seed=908, domain_size=8)
        cost_fn = make_cost_function(model, metric, sanity=0.5)
        assert cost_fn.aggregation == "max"
        # divide_conquer has no max-error mode: it must fall back, not fail.
        assert not DivideConquerKernel().supports(cost_fn)
        assert_kernels_agree(cost_fn)

    def test_max_errors_monotone_in_budget(self):
        model = small_value_pdf(seed=909, domain_size=9)
        cost_fn = make_cost_function(model, "mae")
        result = solve_dynamic_program(cost_fn, 9, kernel="vectorized")
        errors = [result.optimal_error(b) for b in range(1, 10)]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


class TestRegistry:
    def test_available_kernels(self):
        assert set(KERNELS) <= set(available_kernels())

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SynopsisError):
            get_kernel("quantum")
        model = small_value_pdf(seed=910, domain_size=5)
        cost_fn = make_cost_function(model, "sse")
        with pytest.raises(SynopsisError):
            solve_dynamic_program(cost_fn, 2, kernel="quantum")

    def test_auto_prefers_vectorized_for_max_metrics(self):
        model = small_value_pdf(seed=911, domain_size=6)
        cost_fn = make_cost_function(model, "mae")
        assert resolve_kernel("auto", cost_fn).name == "vectorized"

    def test_exact_kernel_supports_everything(self):
        model = small_value_pdf(seed=912, domain_size=6)
        for metric in ALL_METRICS:
            cost_fn = make_cost_function(model, metric, sanity=1.0)
            assert ExactKernel().supports(cost_fn)
            assert VectorizedKernel().supports(cost_fn)


class TestLazyBackPointers:
    """The vectorized kernel reconstructs splits lazily — they must match the
    exact kernel's stored back-pointers including tie-breaks."""

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_boundaries_match_exact(self, metric):
        model = small_value_pdf(seed=913, domain_size=10)
        cost_fn = make_cost_function(model, metric, sanity=1.0)
        reference = get_kernel("exact").solve(cost_fn, 10)
        lazy = get_kernel("vectorized").solve(cost_fn, 10)
        for buckets in range(1, 11):
            assert lazy.boundaries(buckets) == reference.boundaries(buckets)


class TestBuildSynopsisFrontDoor:
    def test_budget_sweep_shares_one_dp(self):
        model = small_value_pdf(seed=914, domain_size=10)
        swept = build(model, SynopsisSpec(budget=[1, 3, 5], metric="sse"))
        assert [h.bucket_count for h in swept] == [1, 3, 5]
        for budget, histogram in zip([1, 3, 5], swept):
            alone = build(model, SynopsisSpec(budget=budget, metric="sse"))
            assert histogram.boundaries == alone.boundaries

    @pytest.mark.parametrize("kernel", ["auto", *KERNELS])
    def test_kernel_choice_does_not_change_result(self, kernel):
        model = small_value_pdf(seed=915, domain_size=9)
        baseline = build(model, SynopsisSpec(budget=4, metric="sae", kernel="exact"))
        histogram = build(model, SynopsisSpec(budget=4, metric="sae", kernel=kernel))
        cost_fn = make_cost_function(model, "sae")
        assert cost_fn.total_cost(histogram.boundaries) == pytest.approx(
            cost_fn.total_cost(baseline.boundaries), abs=1e-12
        )

    def test_wavelet_kind(self):
        model = small_value_pdf(seed=916, domain_size=8)
        wavelet = build(model, SynopsisSpec(kind="wavelet", budget=4, metric="sse"))
        assert wavelet.term_count <= 4
        swept = build(model, SynopsisSpec(kind="wavelet", budget=[2, 4], metric="sse"))
        assert len(swept) == 2

    def test_invalid_kind_rejected(self):
        model = small_value_pdf(seed=917, domain_size=5)
        with pytest.raises(SynopsisError):
            build(model, SynopsisSpec(kind="sketch", budget=2))

    def test_empty_budget_list_rejected(self):
        # An empty sweep used to slip through and return [] before any
        # validation ran; it is a caller bug and must fail up front.
        model = small_value_pdf(seed=918, domain_size=5)
        with pytest.raises(SynopsisError, match="empty budget sweep"):
            build(model, SynopsisSpec(budget=[], metric="sse"))

    @pytest.mark.parametrize("budget", [4.7, "4", [2, 3.5], True])
    def test_non_integral_budget_rejected(self, budget):
        model = small_value_pdf(seed=919, domain_size=5)
        with pytest.raises(SynopsisError):
            build(model, SynopsisSpec(budget=budget, metric="sse"))

    def test_numpy_integer_budget_accepted(self):
        model = small_value_pdf(seed=920, domain_size=6)
        assert build(model, SynopsisSpec(budget=np.int64(3), metric="sse")).bucket_count == 3


# ----------------------------------------------------------------------
# Property-based equivalence over random models
# ----------------------------------------------------------------------
@st.composite
def value_pdf_models(draw, max_items=8, max_outcomes=3, max_value=6):
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


class TestKernelProperties:
    @given(value_pdf_models(), st.sampled_from(ALL_METRICS))
    @settings(max_examples=30, deadline=None)
    def test_kernels_agree_on_random_models(self, model, metric):
        cost_fn = make_cost_function(model, metric, sanity=1.0)
        n = model.domain_size
        reference = get_kernel("exact").solve(cost_fn, n)
        for name in KERNELS:
            result = solve_dynamic_program(cost_fn, n, kernel=name)
            for buckets in range(1, n + 1):
                assert result.optimal_error(buckets) == reference.optimal_error(buckets)

    @given(value_pdf_models(max_items=6), st.sampled_from(CUMULATIVE_METRICS))
    @settings(max_examples=20, deadline=None)
    def test_sorted_models_certify_and_agree(self, model, metric):
        dists = model.to_frequency_distributions()
        order = np.argsort(model.expected_frequencies())
        ranked = type(dists)(dists.grid, dists.probabilities[order])
        cost_fn = make_cost_function(ranked, metric, sanity=1.0)
        assert_kernels_agree(cost_fn)
