"""Compiled-backend tests: resolution, degradation, and bit-identity.

The compiled kernels' contract has three legs, each pinned here:

* **bit-identity** — whichever backend resolves (the C library or the
  interpreted kernel source), the DP tables and SAE/SARE span costs it
  produces are ``array_equal`` to the numpy reference paths, never merely
  close;
* **truthful availability** — with no backend, ``available_kernels()``
  omits the compiled kernels, ``resolve_kernel`` falls back loudly
  (:class:`KernelFallbackWarning`), and a missing C compiler raises
  nothing at import or resolve time;
* **the flat-oracle contract** — ``to_compiled_arrays()`` returns prefix
  arrays that reproduce ``costs_for_spans`` exactly for the quadratic
  oracles and ``None`` everywhere the closed form does not apply.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import KernelFallbackWarning
from repro._compiled import backend as backend_mod
from repro._compiled import get_backend, reset_backend
from repro._compiled import kernels_py
from repro.datasets import zipf_value_pdf
from repro.exceptions import SynopsisError
from repro.histograms import (
    CompiledDivideConquerKernel,
    CompiledVectorizedKernel,
    SseCost,
    available_kernels,
    make_cost_function,
    resolve_kernel,
)
from repro.histograms.kernels import get_kernel
from repro.histograms.kernels.compiled import MAX_COMPILED_DENSE_CELLS
from repro.models import FrequencyDistributions, ValueGrid
from tests.conftest import small_tuple_pdf, small_value_pdf

HAVE_BACKEND = get_backend() is not None
needs_backend = pytest.mark.skipif(not HAVE_BACKEND, reason="no compiled backend available")


@pytest.fixture
def clean_backend(monkeypatch):
    """Reset the memoised backend before and after an env-twiddling test."""
    reset_backend()
    yield monkeypatch
    reset_backend()


def ranked_model(n=40, grid=8, seed=100):
    """A frequency-ranked FrequencyDistributions (monotone certificate holds)."""
    rng = np.random.default_rng(seed)
    values = np.concatenate([[0.0], np.sort(rng.uniform(1.0, 20.0, grid - 1))])
    probabilities = rng.dirichlet(np.ones(grid), size=n)
    expectations = probabilities @ values
    probabilities = probabilities[np.argsort(expectations)]
    return FrequencyDistributions(ValueGrid(values), probabilities, copy=False)


def assert_same_tables(result, reference):
    assert np.array_equal(result._errors, reference._errors)
    assert np.array_equal(result._parents, reference._parents)
    n = reference._errors.shape[1]
    for buckets in (1, 2, reference._errors.shape[0]):
        assert result.boundaries(buckets) == reference.boundaries(buckets)
        assert result.optimal_error(buckets) == reference.optimal_error(buckets)


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
class TestBackendResolution:
    def test_default_resolution_is_memoised(self):
        assert get_backend() is get_backend()

    def test_none_disables(self, clean_backend):
        clean_backend.setenv(backend_mod.BACKEND_ENV, "none")
        assert get_backend() is None

    def test_python_backend_is_the_interpreted_source(self, clean_backend):
        clean_backend.setenv(backend_mod.BACKEND_ENV, "python")
        backend = get_backend()
        assert backend is not None
        assert backend.name == "python"
        assert backend.dp_divide_conquer is kernels_py.dp_divide_conquer
        assert backend.absolute_span_costs is kernels_py.absolute_span_costs

    def test_missing_forced_backend_degrades_to_none(self, clean_backend):
        # Simulate "no C compiler" regardless of this machine: the backend
        # module's import fails, resolution returns None, nothing raises at
        # import or resolve time.
        clean_backend.setitem(backend_mod._MODULES, "cc", "repro._compiled._no_such_backend")
        clean_backend.setenv(backend_mod.BACKEND_ENV, "cc")
        assert get_backend() is None

    def test_auto_skips_broken_backends(self, clean_backend):
        clean_backend.setitem(backend_mod._MODULES, "cc", "repro._compiled._no_such_backend")
        clean_backend.setenv(backend_mod.BACKEND_ENV, "auto")
        assert get_backend() is None

    def test_retired_numba_setting_resolves_like_auto(self, clean_backend):
        # numba is no longer a backend: a leftover REPRO_COMPILED_BACKEND=numba
        # resolves exactly as auto does (the C library when it builds).
        assert "numba" not in backend_mod._MODULES
        assert backend_mod._AUTO_ORDER == ("cc",)
        clean_backend.setenv(backend_mod.BACKEND_ENV, "auto")
        auto = get_backend()
        reset_backend()
        clean_backend.setenv(backend_mod.BACKEND_ENV, "numba")
        stale = get_backend()
        if auto is None:
            assert stale is None
        else:
            assert stale is not None and stale.name == auto.name == "cc"


# ----------------------------------------------------------------------
# Registry availability and fallback
# ----------------------------------------------------------------------
class TestAvailabilityAndFallback:
    @needs_backend
    def test_compiled_kernels_listed_when_backend_present(self):
        names = available_kernels()
        assert "compiled_divide_conquer" in names
        assert "compiled_vectorized" in names

    def test_compiled_kernels_dropped_without_backend(self, clean_backend):
        clean_backend.setenv(backend_mod.BACKEND_ENV, "none")
        names = available_kernels()
        assert "compiled_divide_conquer" not in names
        assert "compiled_vectorized" not in names
        # The numpy kernels are unconditionally present.
        assert {"exact", "vectorized", "divide_conquer"} <= set(names)

    def test_named_request_falls_back_loudly_without_backend(self, clean_backend):
        clean_backend.setenv(backend_mod.BACKEND_ENV, "none")
        cost_fn = SseCost(ranked_model())
        with pytest.warns(KernelFallbackWarning, match="compiled_divide_conquer"):
            kernel = resolve_kernel("compiled_divide_conquer", cost_fn)
        assert kernel.name == "divide_conquer"

    def test_auto_prefers_compiled_only_when_available(self, clean_backend):
        cost_fn = SseCost(ranked_model())
        clean_backend.setenv(backend_mod.BACKEND_ENV, "none")
        assert resolve_kernel("auto", cost_fn).name == "divide_conquer"

    @needs_backend
    def test_auto_prefers_compiled_divide_conquer(self):
        assert resolve_kernel("auto", SseCost(ranked_model())).name == (
            "compiled_divide_conquer"
        )

    def test_solve_without_backend_raises_cleanly(self, clean_backend):
        clean_backend.setenv(backend_mod.BACKEND_ENV, "none")
        cost_fn = SseCost(ranked_model())
        for kernel in (CompiledDivideConquerKernel(), CompiledVectorizedKernel()):
            assert not kernel.available()
            assert not kernel.supports(cost_fn)
            with pytest.raises(SynopsisError, match="compiled backend"):
                kernel.solve(cost_fn, 4)

    def test_warning_type_is_exported(self):
        assert repro.KernelFallbackWarning is KernelFallbackWarning
        assert issubclass(KernelFallbackWarning, UserWarning)


# ----------------------------------------------------------------------
# Bit-identical DP equivalence
# ----------------------------------------------------------------------
@needs_backend
class TestCompiledDPEquivalence:
    @pytest.mark.parametrize("metric", ["sse", "ssre"])
    def test_divide_conquer_matches_exact_on_ranked_models(self, metric):
        model = small_value_pdf(seed=930, domain_size=12)
        dists = model.to_frequency_distributions()
        order = np.argsort(model.expected_frequencies())
        ranked = type(dists)(dists.grid, dists.probabilities[order])
        cost_fn = make_cost_function(ranked, metric, sanity=1.0)
        if not cost_fn.supports_monotone_splits:
            pytest.skip("sorting expectations did not certify this oracle")
        kernel = get_kernel("compiled_divide_conquer")
        assert kernel.supports(cost_fn)
        assert_same_tables(kernel.solve(cost_fn, 12), get_kernel("exact").solve(cost_fn, 12))

    @pytest.mark.parametrize("metric", ["sse", "ssre"])
    @pytest.mark.parametrize(
        "factory", [small_value_pdf, small_tuple_pdf], ids=["value_pdf", "tuple_pdf"]
    )
    def test_dense_matches_exact_on_unordered_models(self, metric, factory):
        model = factory(seed=931, domain_size=10)
        cost_fn = make_cost_function(model, metric, sanity=0.5)
        kernel = get_kernel("compiled_vectorized")
        assert kernel.supports(cost_fn)
        assert_same_tables(kernel.solve(cost_fn, 10), get_kernel("exact").solve(cost_fn, 10))

    def test_workload_weighted_equivalence(self):
        model = small_value_pdf(seed=932, domain_size=9)
        weights = np.random.default_rng(932).uniform(0.1, 2.0, 9)
        cost_fn = make_cost_function(model, "sse", workload=weights)
        assert_same_tables(
            get_kernel("compiled_vectorized").solve(cost_fn, 9),
            get_kernel("exact").solve(cost_fn, 9),
        )

    def test_single_item_and_full_budget_boundaries(self):
        cost_fn = SseCost(ranked_model(n=1))
        result = get_kernel("compiled_divide_conquer").solve(cost_fn, 1)
        assert result.boundaries(1) == [(0, 0)]
        # One bucket over one uncertain item costs its variance, exactly as
        # the reference kernel computes it.
        reference = get_kernel("exact").solve(cost_fn, 1)
        assert result.optimal_error(1) == reference.optimal_error(1)

    def test_divide_conquer_refuses_unordered_oracles(self):
        model = small_value_pdf(seed=933, domain_size=8)
        cost_fn = make_cost_function(model, "sse")
        assert not cost_fn.supports_monotone_splits
        assert not get_kernel("compiled_divide_conquer").supports(cost_fn)
        with pytest.raises(SynopsisError, match="monotone"):
            get_kernel("compiled_divide_conquer").solve(cost_fn, 3)

    def test_compiled_kernels_refuse_non_quadratic_oracles(self):
        model = small_value_pdf(seed=934, domain_size=8)
        for metric in ("sae", "sare"):
            cost_fn = make_cost_function(model, metric, sanity=1.0)
            assert cost_fn.to_compiled_arrays() is None
            assert not get_kernel("compiled_vectorized").supports(cost_fn)
            with pytest.raises(SynopsisError, match="quadratic-prefix"):
                get_kernel("compiled_vectorized").solve(cost_fn, 3)

    def test_dense_kernel_latency_cap(self):
        cost_fn = SseCost(ranked_model())
        kernel = get_kernel("compiled_vectorized")
        assert kernel.supports(cost_fn)
        n = cost_fn.domain_size
        assert n * n <= MAX_COMPILED_DENSE_CELLS
        # A fake domain size past the cap must be refused, not attempted.
        cap_n = int(np.sqrt(MAX_COMPILED_DENSE_CELLS)) + 1

        class _Huge:
            domain_size = cap_n * cap_n

        with pytest.raises(SynopsisError, match="latency cap"):
            kernel.solve(_Huge(), 3)


# ----------------------------------------------------------------------
# The interpreted kernel source (what ckernels.c mirrors) vs the numpy kernels
# ----------------------------------------------------------------------
class TestInterpretedKernelSource:
    """Run kernels_py directly so the algorithm the C library transliterates
    is validated even on machines without a C compiler."""

    def _tables(self, cost_fn, max_buckets, fn):
        pa, pb, pc = (
            np.ascontiguousarray(a, dtype=np.float64) for a in cost_fn.to_compiled_arrays()
        )
        n = cost_fn.domain_size
        errors = np.empty((max_buckets, n), dtype=np.float64)
        parents = np.empty((max_buckets, n), dtype=np.int64)
        fn(pa, pb, pc, errors, parents)
        return errors, parents

    def test_interpreted_dense_matches_exact(self):
        cost_fn = SseCost(ranked_model(n=14, seed=101))
        reference = get_kernel("exact").solve(cost_fn, 6)
        errors, parents = self._tables(cost_fn, 6, kernels_py.dp_dense)
        assert np.array_equal(errors, reference._errors)
        assert np.array_equal(parents, reference._parents)

    def test_interpreted_divide_conquer_matches_exact(self):
        cost_fn = SseCost(ranked_model(n=14, seed=102))
        assert cost_fn.supports_monotone_splits
        reference = get_kernel("exact").solve(cost_fn, 6)
        errors, parents = self._tables(cost_fn, 6, kernels_py.dp_divide_conquer)
        assert np.array_equal(errors, reference._errors)
        assert np.array_equal(parents, reference._parents)


# ----------------------------------------------------------------------
# The flat-oracle contract
# ----------------------------------------------------------------------
class TestToCompiledArrays:
    @pytest.mark.parametrize("metric", ["sse", "ssre"])
    def test_quadratic_prefix_reproduces_costs_exactly(self, metric):
        model = small_value_pdf(seed=940, domain_size=11)
        cost_fn = make_cost_function(model, metric, sanity=0.7)
        pa, pb, pc = cost_fn.to_compiled_arrays()
        n = cost_fn.domain_size
        assert pa.shape == pb.shape == pc.shape == (n + 1,)
        starts, ends = np.tril_indices(n)
        ends, starts = starts, ends  # tril gives (row >= col): row=end, col=start
        x = pa[ends + 1] - pa[starts]
        y = pb[ends + 1] - pb[starts]
        z = pc[ends + 1] - pc[starts]
        safe = np.where(z > 0.0, z, 1.0)
        costs = np.where(z > 0.0, x - (y ** 2) / safe, 0.0)
        costs = np.maximum(costs, 0.0)
        assert np.array_equal(costs, cost_fn.costs_for_spans(starts, ends))

    def test_paper_sse_variant_opts_out(self):
        model = small_tuple_pdf(seed=941, domain_size=7)
        cost_fn = make_cost_function(model, "sse", sse_variant="paper")
        assert cost_fn.to_compiled_arrays() is None

    @pytest.mark.parametrize("metric", ["sae", "sare", "mae", "mare"])
    def test_non_quadratic_oracles_opt_out(self, metric):
        model = small_value_pdf(seed=942, domain_size=7)
        cost_fn = make_cost_function(model, metric, sanity=1.0)
        assert cost_fn.to_compiled_arrays() is None


# ----------------------------------------------------------------------
# SAE/SARE pooled-median span costs
# ----------------------------------------------------------------------
def absolute_oracle(case):
    """A small SAE/SARE oracle for one named edge case of the span-cost kernel."""
    metric = "sare" if case.startswith("sare") else "sae"
    if case == "n1":
        return make_cost_function(zipf_value_pdf(1, seed=960), "sae")
    if case == "one-value-grid":
        # The grid always holds 0, so a one-value grid is "every item is 0".
        grid = ValueGrid([0.0])
        return make_cost_function(FrequencyDistributions(grid, np.ones((7, 1))), "sae")
    model = zipf_value_pdf(13, skew=1.1, uncertainty=0.4, seed=961)
    if case.endswith("uniform"):
        return make_cost_function(model, metric, sanity=0.5)
    weights = np.random.default_rng(962).uniform(0.1, 2.0, 13)
    if case.endswith("zero-weights"):
        weights[[1, 6, 12]] = 0.0
    else:  # zero-weight buckets: every span inside [3, 7] weighs nothing
        weights[3:8] = 0.0
    return make_cost_function(model, metric, sanity=0.5, workload=weights)


ABSOLUTE_CASES = [
    "sae-uniform", "sare-uniform", "sae-zero-weights", "sare-zero-weights",
    "sae-zero-buckets", "sare-zero-buckets", "n1", "one-value-grid",
]


def span_batches(n):
    """The full triangle of spans, then a ragged, unsorted batch with repeats."""
    ends, starts = np.tril_indices(n)
    yield starts, ends
    rng = np.random.default_rng(963)
    starts = rng.integers(0, n, size=3 * n)
    ends = np.minimum(starts + rng.integers(0, n, size=starts.size), n - 1)
    yield starts.astype(np.int64), ends.astype(np.int64)


def dipping_profile():
    """Kernel inputs of one span whose pooled profile is non-monotone by an ulp.

    The profile ``[1, 1 - ulp, 2]`` reaches half the weight (1.0) at column
    0, dips below it and crosses again at column 2.  numpy's ``argmax``
    takes column 0, so the cost is the minimum at columns 0 and 1; a
    bisection would land on column 2 and return the (smaller) cost there.
    """
    values = np.array([0.0, 1.0, 2.0])
    below_w = np.array([[0.0, 0.0, 0.0], [1.0, np.nextafter(1.0, 0.0), 2.0]])
    below_wv = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    prefix_w = np.array([0.0, 2.0])
    prefix_wv = np.array([0.0, 3.0])
    bw, bwv = below_w[1], below_wv[1]
    costs = values * bw - bwv + (prefix_wv[1] - bwv) - values * (prefix_w[1] - bw)
    assert costs[2] < min(costs[0], costs[1])
    arrays = (below_w, below_wv, prefix_w, prefix_wv, values)
    return arrays, min(costs[0], costs[1])


def assert_dipping_profile_scanned(fn):
    arrays, expected = dipping_profile()
    out = np.empty(1)
    fn(*arrays, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), out)
    assert out[0] == expected


def assert_same_costs(got, reference):
    assert np.array_equal(got, reference)
    assert np.array_equal(np.signbit(got), np.signbit(reference))


def kernel_span_costs(fn, cost_fn, starts, ends):
    out = np.empty(starts.shape, dtype=np.float64)
    fn(
        cost_fn._below_weight, cost_fn._below_weighted_value, cost_fn._prefix_total_weight,
        cost_fn._prefix_total_weighted_value, cost_fn._values, starts, ends, out,
    )
    return out


class TestAbsoluteSpanCostsInterpreted:
    """The kernel source against the numpy batch path, on any backend."""

    @pytest.mark.parametrize("case", ABSOLUTE_CASES)
    def test_interpreted_source_matches_numpy(self, case):
        cost_fn = absolute_oracle(case)
        for starts, ends in span_batches(cost_fn.domain_size):
            assert_same_costs(
                kernel_span_costs(kernels_py.absolute_span_costs, cost_fn, starts, ends),
                cost_fn._numpy_span_costs(starts, ends),
            )

    def test_interpreted_source_takes_the_first_crossing(self):
        assert_dipping_profile_scanned(kernels_py.absolute_span_costs)

    def test_costs_for_spans_dispatches_to_the_backend(self, clean_backend):
        calls = []
        source = kernels_py.absolute_span_costs

        def spy(*args):
            calls.append(args[5].size)
            source(*args)

        clean_backend.setattr(kernels_py, "absolute_span_costs", spy)
        clean_backend.setenv(backend_mod.BACKEND_ENV, "python")
        cost_fn = absolute_oracle("sare-zero-weights")
        starts, ends = next(span_batches(cost_fn.domain_size))
        assert_same_costs(
            cost_fn.costs_for_spans(starts, ends), cost_fn._numpy_span_costs(starts, ends)
        )
        assert calls == [starts.size]


@needs_backend
class TestCompiledAbsoluteSpanCosts:
    @pytest.mark.parametrize("case", ABSOLUTE_CASES)
    def test_backend_matches_numpy(self, case):
        cost_fn = absolute_oracle(case)
        for starts, ends in span_batches(cost_fn.domain_size):
            assert_same_costs(
                kernel_span_costs(get_backend().absolute_span_costs, cost_fn, starts, ends),
                cost_fn._numpy_span_costs(starts, ends),
            )
            assert_same_costs(
                cost_fn.costs_for_spans(starts, ends), cost_fn._numpy_span_costs(starts, ends)
            )

    def test_backend_takes_the_first_crossing(self):
        assert_dipping_profile_scanned(get_backend().absolute_span_costs)

    def test_backend_matches_numpy_at_build_scale(self):
        # A grid of hundreds of values, where pooled profiles that dip by an
        # ulp are common: the scan must still find numpy's first crossing.
        for metric in ("sae", "sare"):
            cost_fn = make_cost_function(
                zipf_value_pdf(96, skew=1.1, uncertainty=0.4, seed=964), metric, sanity=1.0
            )
            assert cost_fn.batch_cost_columns > 100
            for starts, ends in span_batches(cost_fn.domain_size):
                assert_same_costs(
                    cost_fn.costs_for_spans(starts, ends),
                    cost_fn._numpy_span_costs(starts, ends),
                )

    @pytest.mark.parametrize("metric", ["sae", "sare"])
    @pytest.mark.parametrize("kernel", ["exact", "vectorized"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "workload"])
    def test_builds_match_backendless_builds(self, clean_backend, metric, kernel, weighted):
        model = zipf_value_pdf(20, skew=1.1, uncertainty=0.4, seed=965)
        workload = None
        if weighted:
            workload = np.random.default_rng(965).uniform(0.1, 2.0, 20)
            workload[[2, 3, 11]] = 0.0
        budget = 8

        def build():
            # Everything, lazy back-pointers included, under the current backend.
            cost_fn = make_cost_function(model, metric, sanity=1.0, workload=workload)
            result = get_kernel(kernel).solve(cost_fn, budget)
            return result._errors, [result.histogram(b) for b in range(1, budget + 1)]

        errors, histograms = build()
        clean_backend.setenv(backend_mod.BACKEND_ENV, "none")
        reset_backend()
        assert get_backend() is None
        reference_errors, references = build()
        assert np.array_equal(errors, reference_errors)
        for histogram, reference in zip(histograms, references):
            assert histogram.boundaries == reference.boundaries
            assert np.array_equal(histogram.representatives, reference.representatives)
