"""Wavelet synopses on probabilistic data (Section 4 of the paper).

Contents:

* :mod:`repro.wavelets.haar` — the deterministic Haar DWT substrate
  (transform, inverse, error-tree geometry, normalisation);
* :mod:`repro.wavelets.coefficients` — expected Haar coefficients and their
  variances under the probabilistic models;
* :mod:`repro.wavelets.sse` — the ``O(n)`` expected-SSE-optimal thresholding
  (Theorem 7);
* :mod:`repro.wavelets.nonsse` — the tabulated bottom-up restricted
  coefficient-tree dynamic program for non-SSE metrics (Theorem 8);
* :mod:`repro.wavelets.reference` — the recursive memoised reference solver
  the tabulated engine is equivalence-tested against (a test and benchmark
  oracle, imported from that module and not exported here);
* :mod:`repro.wavelets.leaf_errors` — the shared batched expected-leaf-error
  sweep both solvers evaluate through;
* :mod:`repro.wavelets.baselines` — the sampled-world baseline of Figure 4.
"""

from .baselines import expectation_wavelet, sampled_world_wavelet
from .coefficients import (
    coefficient_second_moments,
    coefficient_variances,
    expected_coefficients,
)
from .haar import (
    coefficient_level,
    coefficient_sign,
    coefficient_support,
    haar_transform,
    inverse_haar_transform,
    leaf_ancestors,
    next_power_of_two,
    normalisation_factors,
    pad_to_power_of_two,
    reconstruct_leaf,
)
from .leaf_errors import expected_leaf_errors, leaf_weight_vector
from .nonsse import (
    RestrictedWaveletDP,
    restricted_wavelet_sweep,
    restricted_wavelet_synopsis,
)
from .sse import expected_sse_of_selection, sse_optimal_wavelet, top_coefficient_indices

__all__ = [
    "haar_transform",
    "inverse_haar_transform",
    "pad_to_power_of_two",
    "next_power_of_two",
    "normalisation_factors",
    "coefficient_level",
    "coefficient_support",
    "coefficient_sign",
    "leaf_ancestors",
    "reconstruct_leaf",
    "expected_coefficients",
    "coefficient_variances",
    "coefficient_second_moments",
    "sse_optimal_wavelet",
    "expected_sse_of_selection",
    "top_coefficient_indices",
    "restricted_wavelet_synopsis",
    "restricted_wavelet_sweep",
    "RestrictedWaveletDP",
    "expected_leaf_errors",
    "leaf_weight_vector",
    "sampled_world_wavelet",
    "expectation_wavelet",
]
