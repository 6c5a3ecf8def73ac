"""Recursive reference solver for the restricted non-SSE wavelet DP.

This is the original memoised top-down formulation of the Section 4.2 /
Theorem 8 dynamic program: recurse over the Haar error tree, memoise on
``(node, budget, incoming value)``, and carry the retained coefficient set
as a frozenset through every state.  It is deliberately kept as the
*reference oracle* for the fast tabulated engine in
:mod:`repro.wavelets.nonsse`: slow (its leaf evaluations are re-done per
budget and its set bookkeeping copies on every improvement) but small
enough to audit line by line.

Two details are normalised relative to the historical implementation so the
two solvers can be compared bit for bit rather than within tolerances:

* memoisation keys use the exact incoming float, not ``round(incoming, 10)``
  — the rounded key could conflate distinct reachable values and return the
  error of a *different* state;
* candidate comparisons are exact (``<``, first candidate wins ties) instead
  of requiring a ``1e-15`` improvement, so the reported optimum is the true
  minimum of the candidate set rather than up to an epsilon above it.

Leaf errors go through the shared
:func:`repro.wavelets.leaf_errors.expected_leaf_errors`, whose result for a
pair does not depend on the batch it arrives in, so this solver's one-pair
calls match the engine's whole-level batch bit for bit.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

import numpy as np

from ..core.metrics import DEFAULT_SANITY, ErrorMetric, MetricSpec
from ..core.wavelet import WaveletSynopsis
from ..exceptions import SynopsisError
from ..models.frequency import FrequencyDistributions
from .coefficients import expected_coefficients
from .haar import next_power_of_two, normalisation_factors
from .leaf_errors import expected_leaf_errors, leaf_weight_vector

__all__ = ["ReferenceWaveletDP"]


class ReferenceWaveletDP:
    """Memoised top-down dynamic program over the Haar error tree.

    Parameters
    ----------
    distributions:
        Per-item marginal frequency pdfs of the probabilistic input.
    metric:
        Any cumulative or maximum error metric.  Cumulative metrics combine
        subtree errors by summation, maximum metrics by ``max`` — the ``h``
        combiner of the paper's recurrences.
    """

    def __init__(
        self,
        distributions: FrequencyDistributions,
        metric: Union[str, ErrorMetric, MetricSpec],
        *,
        sanity: float = DEFAULT_SANITY,
        workload=None,
    ) -> None:
        self._distributions = distributions
        self._spec = metric if isinstance(metric, MetricSpec) else MetricSpec.of(metric, sanity)
        self._n = distributions.domain_size
        self._length = next_power_of_two(self._n)
        self._factors = normalisation_factors(self._length)
        self._mu = expected_coefficients(distributions)
        self._values = distributions.values
        self._probs = distributions.probabilities
        self._leaf_weights = leaf_weight_vector(self._n, self._length, workload)
        self._cache: Dict[Tuple[int, int, float], Tuple[float, frozenset]] = {}

    # ------------------------------------------------------------------
    # Leaf errors
    # ------------------------------------------------------------------
    def _leaf_error(self, leaf: int, incoming: float) -> float:
        """Expected (workload-weighted) point error of approximating a leaf by ``incoming``."""
        return float(
            expected_leaf_errors(
                self._probs,
                self._values,
                self._spec,
                np.array([leaf], dtype=np.int64),
                np.array([incoming], dtype=float),
                self._leaf_weights,
            )[0]
        )

    def _combine(self, left: float, right: float) -> float:
        return left + right if self._spec.cumulative else max(left, right)

    # ------------------------------------------------------------------
    # Recursion over the error tree
    # ------------------------------------------------------------------
    def _solve(self, node: int, budget: int, incoming: float) -> Tuple[float, frozenset]:
        """Best error and retained-set for the subtree rooted at detail ``node``."""
        key = (node, budget, incoming)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        length = self._length
        if node >= length:
            # ``node`` is a (virtual) leaf position length + leaf index.
            result = (self._leaf_error(node - length, incoming), frozenset())
            self._cache[key] = result
            return result

        contribution = self._mu[node] / self._factors[node]
        left_child = 2 * node
        right_child = 2 * node + 1

        best_error = np.inf
        best_set: frozenset = frozenset()

        # Option 1: do not retain this coefficient.
        for left_budget in range(budget + 1):
            left_error, left_set = self._solve(left_child, left_budget, incoming)
            right_error, right_set = self._solve(right_child, budget - left_budget, incoming)
            error = self._combine(left_error, right_error)
            if error < best_error:
                best_error = error
                best_set = left_set | right_set

        # Option 2: retain this coefficient (needs one unit of budget).
        if budget >= 1:
            for left_budget in range(budget):
                left_error, left_set = self._solve(
                    left_child, left_budget, incoming + contribution
                )
                right_error, right_set = self._solve(
                    right_child, budget - 1 - left_budget, incoming - contribution
                )
                error = self._combine(left_error, right_error)
                if error < best_error:
                    best_error = error
                    best_set = left_set | right_set | {node}

        result = (float(best_error), best_set)
        self._cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def solve(self, budget: int) -> Tuple[float, WaveletSynopsis]:
        """Optimal restricted synopsis and its expected error for the given budget."""
        if budget < 0:
            raise SynopsisError("the coefficient budget must be non-negative")
        budget = min(budget, self._length)
        self._cache.clear()

        root_contribution = self._mu[0] / self._factors[0]
        best_error = np.inf
        best_set: frozenset = frozenset()
        keep_root_options = (False, True) if budget >= 1 else (False,)
        for keep_root in keep_root_options:
            incoming = root_contribution if keep_root else 0.0
            remaining = budget - 1 if keep_root else budget
            if self._length == 1:
                error = self._leaf_error(0, incoming)
                retained: frozenset = frozenset({0}) if keep_root else frozenset()
            else:
                error, retained = self._solve(1, remaining, incoming)
                if keep_root:
                    retained = retained | {0}
            if error < best_error:
                best_error = error
                best_set = retained
        coefficients = {int(index): float(self._mu[index]) for index in sorted(best_set)}
        return float(best_error), WaveletSynopsis(coefficients, domain_size=self._n)
