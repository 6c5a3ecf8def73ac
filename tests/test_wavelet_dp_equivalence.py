"""Equivalence matrix: tabulated wavelet DP vs. the recursive reference oracle.

The tabulated bottom-up engine (`repro.wavelets.nonsse.RestrictedWaveletDP`)
and the memoised recursive reference (`repro.wavelets.reference.ReferenceWaveletDP`)
implement the same Theorem 8 dynamic program.  Both evaluate leaf errors
through one shared kernel and break ties identically, so these tests demand
*exact* equality — identical optimal error floats and identical retained
coefficient sets — not tolerance-level agreement.
"""

import numpy as np
import pytest

from repro import SynopsisSpec, build
from repro.exceptions import SynopsisError
from repro.models.frequency import FrequencyDistributions
from repro.wavelets.coefficients import expected_coefficients
from repro.wavelets.haar import next_power_of_two, normalisation_factors
from repro.wavelets.nonsse import RestrictedWaveletDP, restricted_wavelet_sweep
from repro.wavelets.reference import ReferenceWaveletDP
from tests.conftest import small_tuple_pdf, small_value_pdf

ALL_METRICS = ["sse", "ssre", "sae", "sare", "mae", "mare"]


def assert_identical(distributions, metric, budgets, *, sanity=1.0, workload=None):
    """Exact error/retained-set agreement between the two solvers for every budget."""
    fast = RestrictedWaveletDP(distributions, metric, sanity=sanity, workload=workload)
    fast.prepare(max(budgets))
    reference = ReferenceWaveletDP(distributions, metric, sanity=sanity, workload=workload)
    for budget in budgets:
        fast_error, fast_synopsis = fast.solve(budget)
        ref_error, ref_synopsis = reference.solve(budget)
        assert fast_error == ref_error, (metric, budget, fast_error, ref_error)
        assert fast_synopsis.indices == ref_synopsis.indices, (metric, budget)
        assert fast_synopsis == ref_synopsis


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_value_pdf_all_budgets(self, metric):
        model = small_value_pdf(seed=5, domain_size=8)
        distributions = model.to_frequency_distributions()
        assert_identical(distributions, metric, range(0, 10))

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_non_power_of_two_domain(self, metric):
        # n = 5 pads to length 8: three deterministic-zero padding leaves.
        model = small_value_pdf(seed=11, domain_size=5)
        distributions = model.to_frequency_distributions()
        assert_identical(distributions, metric, range(0, 7), sanity=0.5)

    @pytest.mark.parametrize("metric", ["sae", "sare", "mae", "mare"])
    def test_tuple_pdf_model(self, metric):
        model = small_tuple_pdf(seed=3, domain_size=6)
        distributions = model.to_frequency_distributions()
        assert_identical(distributions, metric, range(0, 8))

    @pytest.mark.parametrize("metric", ["sae", "mae", "sse"])
    def test_skewed_workload(self, metric):
        model = small_value_pdf(seed=7, domain_size=6)
        distributions = model.to_frequency_distributions()
        weights = np.array([8.0, 4.0, 2.0, 1.0, 0.5, 0.25])
        assert_identical(distributions, metric, range(0, 8), workload=weights)

    @pytest.mark.parametrize("metric", ["sae", "mae"])
    def test_workload_with_zero_weight_items(self, metric):
        model = small_value_pdf(seed=13, domain_size=6)
        distributions = model.to_frequency_distributions()
        weights = np.array([0.0, 0.0, 5.0, 1.0, 0.0, 2.0])
        assert_identical(distributions, metric, range(0, 8), workload=weights)

    @pytest.mark.parametrize("metric", ["sae", "sare", "mae"])
    def test_deterministic_frequency_vector(self, metric):
        distributions = FrequencyDistributions.deterministic([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0])
        assert_identical(distributions, metric, range(0, 9))

    def test_uniform_frequencies_with_tied_optima(self):
        # Every detail coefficient is exactly zero: many selections tie and
        # both solvers must break the ties the same way.
        distributions = FrequencyDistributions.deterministic([2.0] * 8)
        assert_identical(distributions, "sae", range(0, 9))

    def test_single_item_domain(self):
        distributions = FrequencyDistributions.deterministic([2.0])
        assert_identical(distributions, "sae", range(0, 3))


def duplicate_incoming_states(distributions):
    """How many (node, retained-ancestor subset) states repeat another's incoming value.

    Enumerates every subset's incoming value along the same
    ``incoming ± contribution`` steps both solvers take.
    """
    length = next_power_of_two(distributions.domain_size)
    contrib = expected_coefficients(distributions) / normalisation_factors(length)
    incoming = {1: [0.0, contrib[0]]}
    for node in range(2, 2 * length):
        parent, shift = incoming[node // 2], contrib[node // 2]
        incoming[node] = parent + [v + shift if node % 2 == 0 else v - shift for v in parent]
    return sum(len(values) - len(set(values)) for values in incoming.values())


def integer_frequencies(n):
    values = np.random.default_rng(1).integers(0, 3, size=n).astype(float)
    return FrequencyDistributions.deterministic(values)


class TestDuplicateIncomingValues:
    """Different ancestor subsets reaching exactly equal incoming values.

    The engine keeps such states as separate rows of its fixed-shape levels;
    the reference memoises them as one.  Both must still agree bit for bit.
    """

    CASES = {
        "integer-n16": lambda: integer_frequencies(16),
        "integer-n13-padded": lambda: integer_frequencies(13),
        "constant-n16": lambda: FrequencyDistributions.deterministic([2.0] * 16),
    }

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_reference(self, case, metric):
        distributions = self.CASES[case]()
        assert duplicate_incoming_states(distributions) > 0
        assert_identical(distributions, metric, range(0, 9))


class TestSweepSemantics:
    def test_sweep_matches_fresh_per_budget_solves(self):
        model = small_value_pdf(seed=2, domain_size=8)
        distributions = model.to_frequency_distributions()
        swept = RestrictedWaveletDP(distributions, "sae").sweep(8)
        assert len(swept) == 9
        for budget, (error, synopsis) in enumerate(swept):
            fresh_error, fresh_synopsis = RestrictedWaveletDP(distributions, "sae").solve(budget)
            assert error == fresh_error
            assert synopsis.indices == fresh_synopsis.indices

    def test_sweep_errors_monotone_in_budget(self):
        model = small_value_pdf(seed=4, domain_size=8)
        swept = RestrictedWaveletDP(model.to_frequency_distributions(), "mare").sweep(8)
        errors = [error for error, _ in swept]
        assert all(b <= a for a, b in zip(errors, errors[1:]))

    def test_restricted_wavelet_sweep_matches_single_builds(self):
        model = small_value_pdf(seed=6, domain_size=8)
        budgets = [1, 3, 5]
        synopses = restricted_wavelet_sweep(model, budgets, "sae")
        distributions = model.to_frequency_distributions()
        for budget, synopsis in zip(budgets, synopses):
            _, single = RestrictedWaveletDP(distributions, "sae").solve(budget)
            assert synopsis == single

    def test_restricted_wavelet_sweep_empty_budgets(self):
        model = small_value_pdf(seed=6, domain_size=4)
        assert restricted_wavelet_sweep(model, [], "sae") == []

    def test_budget_beyond_transform_length_capped(self):
        model = small_value_pdf(seed=8, domain_size=4)
        distributions = model.to_frequency_distributions()
        dp = RestrictedWaveletDP(distributions, "sae")
        error_at_cap, synopsis_at_cap = dp.solve(4)
        error_beyond, synopsis_beyond = dp.solve(12)
        assert error_beyond == error_at_cap
        assert synopsis_beyond.indices == synopsis_at_cap.indices

    def test_negative_budget_rejected_everywhere(self):
        model = small_value_pdf(seed=1, domain_size=4)
        distributions = model.to_frequency_distributions()
        dp = RestrictedWaveletDP(distributions, "sae")
        with pytest.raises(SynopsisError):
            dp.solve(-1)
        with pytest.raises(SynopsisError):
            dp.prepare(-2)
        with pytest.raises(SynopsisError):
            dp.sweep(-1)
        with pytest.raises(SynopsisError):
            restricted_wavelet_sweep(model, [2, -1], "sae")


class TestBuilderIntegration:
    def test_budget_list_shares_one_tabulation(self):
        model = small_value_pdf(seed=9, domain_size=8)
        budgets = [1, 2, 4, 6]
        from_sweep = build(model, SynopsisSpec(kind="wavelet", budget=budgets, metric="sae"))
        one_by_one = [
            build(model, SynopsisSpec(kind="wavelet", budget=budget, metric="sae"))
            for budget in budgets
        ]
        assert from_sweep == one_by_one

    def test_builder_matches_reference_optimum(self):
        model = small_value_pdf(seed=10, domain_size=6)
        distributions = model.to_frequency_distributions()
        synopsis = build(model, SynopsisSpec(kind="wavelet", budget=3, metric="mae"))
        _, expected = ReferenceWaveletDP(distributions, "mae").solve(3)
        assert synopsis.indices == expected.indices


class TestFigure4Integration:
    def test_dp_curves_ride_along(self):
        from repro.experiments import run_wavelet_quality

        model = small_value_pdf(seed=12, domain_size=8)
        result = run_wavelet_quality(
            model, [1, 2, 4], sample_count=1, seed=3, dp_metrics=["sae", "mae"]
        )
        assert {"dp_sae", "dp_mae"} <= set(result.curves)
        curve = result.curves["dp_sae"]
        assert curve.budgets == [1, 2, 4]
        # The DP's selections are optimal for SAE, not for coefficient
        # energy, so its percents must still be valid percentages.
        assert all(0.0 <= p <= 100.0 for p in curve.error_percents)
