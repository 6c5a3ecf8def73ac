"""Tests for the prefix-sum sweep behind the restricted wavelet DPs' leaf errors.

``expected_leaf_errors`` answers every ``(leaf, incoming value)`` pair from
per-row prefix sums over the sorted value grid instead of summing all ``|V|``
grid terms.  Three properties are pinned here:

* **accuracy** — against the direct per-pair grid sum (the evaluation the
  sweep replaced, kept below as the reference), within ``(|V| + 4) * eps * S``
  where ``S = w * sum_j p_j * g_j * (|V_j| + |x|)^k`` bounds the magnitude of
  every summed term (``k = 2`` for squared metrics, 1 for absolute ones);
* **batch independence** — a pair evaluated alone is bit-identical to the same
  pair inside a large batch, which is what keeps the one-pair-per-call
  reference solver and the tabulated engine bit-identical to each other;
* **signs and input checks** — results are ``>= 0`` with every zero ``+0.0``,
  and an unsorted grid is refused.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import MetricSpec
from repro.datasets import zipf_value_pdf
from repro.exceptions import EvaluationError
from repro.wavelets.leaf_errors import _swept_errors, expected_leaf_errors

METRICS = ["sse", "ssre", "sae", "sare", "mae", "mare"]
EPS = np.finfo(float).eps


# ----------------------------------------------------------------------
# The reference: every pair sums all |V| grid terms
# ----------------------------------------------------------------------
def _pairwise_sum(products: np.ndarray) -> np.ndarray:
    """Sum over the last axis with a fixed binary-tree bracketing."""
    while products.shape[-1] > 1:
        if products.shape[-1] % 2:
            products = np.concatenate(
                [products[..., 0:-1:2] + products[..., 1::2], products[..., -1:]], axis=-1
            )
        else:
            products = products[..., 0::2] + products[..., 1::2]
    return products[..., 0]


def _numpy_batch(probabilities, values, spec, rows, incoming, weights):
    """The direct sum of a real-leaf batch: a ``(pairs, V)`` table of point errors."""
    errors = np.asarray(spec.point_error(values[:, None], incoming[None, :]), dtype=float)
    return weights * _pairwise_sum(probabilities[rows] * errors.T)


def direct_leaf_errors(probabilities, values, spec, leaf_indices, incoming, leaf_weights):
    """The reference for a whole batch: padding leaves score ``x`` against 0."""
    out = np.zeros(incoming.shape)
    weights = leaf_weights[leaf_indices]
    live = weights != 0.0
    padding = live & (leaf_indices >= probabilities.shape[0])
    out[padding] = weights[padding] * spec.point_error(0.0, incoming[padding])
    real = live & ~padding
    out[real] = _numpy_batch(
        probabilities, values, spec, leaf_indices[real], incoming[real], weights[real]
    )
    return out


def error_scale(probabilities, values, spec, leaf_indices, incoming, leaf_weights):
    """``S = w * sum_j p_j * g_j * (|V_j| + |x|)^k`` per pair (padding: one term at 0)."""
    power = 2 if spec.squared else 1

    def grid_weight(grid):
        if not spec.relative:
            return np.ones_like(grid)
        return 1.0 / np.maximum(spec.sanity, np.abs(grid)) ** power

    scale = np.empty(incoming.shape)
    for p, (leaf, x) in enumerate(zip(leaf_indices, incoming)):
        if leaf >= probabilities.shape[0]:
            total = grid_weight(np.zeros(1))[0] * abs(x) ** power
        else:
            terms = probabilities[leaf] * grid_weight(values) * (np.abs(values) + abs(x)) ** power
            total = terms.sum()
        scale[p] = leaf_weights[leaf] * total
    return scale


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def candidate_values(rng, values):
    """Incoming values on grid points, between them, below 0 and above max(V)."""
    parts = [rng.choice(values, size=min(6, values.size), replace=False)]
    if values.size > 1:
        between = (values[:-1] + values[1:]) / 2.0
        parts.append(rng.choice(between, size=min(6, between.size), replace=False))
    parts.append(-rng.uniform(0.1, 10.0, 3))
    parts.append(values[-1] + rng.uniform(0.1, 10.0, 3))
    return np.concatenate(parts)


def grid_instance(seed, n, grid_size, length, zero_leaves=()):
    """``n`` random pdfs over a sorted grid holding 0, every leaf x every candidate."""
    rng = np.random.default_rng(seed)
    values = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 40.0, grid_size - 1))])
    probabilities = rng.dirichlet(np.full(grid_size, 0.3), size=n)
    candidates = candidate_values(rng, values)
    leaf_indices = np.repeat(np.arange(length, dtype=np.int64), candidates.size)
    incoming = np.tile(candidates, length)
    leaf_weights = rng.uniform(0.2, 2.0, length)
    leaf_weights[list(zero_leaves)] = 0.0
    return probabilities, values, leaf_indices, incoming, leaf_weights


def mixed_instance():
    # 12 real leaves padded to 16; two real and one padding leaf weigh zero.
    return grid_instance(960, n=12, grid_size=40, length=16, zero_leaves=(1, 7, 14))


def single_item_instance():
    return grid_instance(961, n=1, grid_size=9, length=1)


def one_value_grid_instance():
    rng = np.random.default_rng(962)
    values = np.array([0.0])
    candidates = candidate_values(rng, values)
    leaf_indices = np.repeat(np.arange(8, dtype=np.int64), candidates.size)
    return np.ones((5, 1)), values, leaf_indices, np.tile(candidates, 8), np.ones(8)


def large_grid_instance():
    return grid_instance(963, n=4, grid_size=1_200, length=4)


def mixed_batch_instance():
    """Padding leaves, zero weights and real leaves interleaved in one small batch."""
    rng = np.random.default_rng(951)
    probabilities = rng.dirichlet(np.ones(5), size=8)
    values = np.sort(rng.uniform(0.0, 4.0, 5))
    leaf_indices = np.array([0, 3, 7, 8, 9, 5], dtype=np.int64)
    incoming = rng.uniform(0.0, 4.0, 6)
    leaf_weights = np.array([1.0, 0.0, 2.0, 1.5, 1.0, 0.5, 1.0, 0.25, 2.0, 0.0])
    return probabilities, values, leaf_indices, incoming, leaf_weights


INSTANCES = {
    "mixed": mixed_instance,
    "n1": single_item_instance,
    "one-value-grid": one_value_grid_instance,
    "large-grid": large_grid_instance,
    "mixed-batch": mixed_batch_instance,
}


# ----------------------------------------------------------------------
# Accuracy against the direct sum
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", list(INSTANCES))
@pytest.mark.parametrize("sanity", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("metric", METRICS)
def test_sweep_matches_direct_sum_within_bound(case, sanity, metric):
    probabilities, values, leaf_indices, incoming, leaf_weights = INSTANCES[case]()
    spec = MetricSpec.of(metric, sanity)
    swept = expected_leaf_errors(
        probabilities, values, spec, leaf_indices, incoming, leaf_weights
    )
    direct = direct_leaf_errors(probabilities, values, spec, leaf_indices, incoming, leaf_weights)
    bound = (values.size + 4) * EPS * error_scale(
        probabilities, values, spec, leaf_indices, incoming, leaf_weights
    )
    assert np.all(np.abs(swept - direct) <= bound)
    # Zero-weight leaves are free, exactly.
    free = leaf_weights[leaf_indices] == 0.0
    assert np.all(swept[free] == 0.0)


def test_empty_batch():
    probabilities, values, _, _, leaf_weights = mixed_instance()
    out = expected_leaf_errors(
        probabilities, values, MetricSpec.of("sae"), np.array([], dtype=np.int64),
        np.array([]), leaf_weights,
    )
    assert out.shape == (0,)


# ----------------------------------------------------------------------
# Batch independence (what keeps the two restricted-DP solvers identical)
# ----------------------------------------------------------------------
def build_scale_batch():
    """Leaf pairs over a zipf instance of the build-mix wavelet shape (|V| = 380)."""
    model = zipf_value_pdf(128, skew=1.1, uncertainty=0.4, seed=964)
    distributions = model.to_frequency_distributions()
    rng = np.random.default_rng(964)
    leaf_indices = rng.integers(0, 128, size=600).astype(np.int64)
    incoming = rng.uniform(-5.0, 1.2 * distributions.values[-1], size=600)
    leaf_weights = np.ones(128)
    return distributions.probabilities, distributions.values, leaf_indices, incoming, leaf_weights


@pytest.mark.parametrize("metric", METRICS)
def test_pair_alone_is_bit_identical_to_pair_in_batch(metric):
    probabilities, values, leaf_indices, incoming, leaf_weights = build_scale_batch()
    assert values.size >= 300
    spec = MetricSpec.of(metric, sanity=1.0)
    batch = expected_leaf_errors(
        probabilities, values, spec, leaf_indices, incoming, leaf_weights
    )
    alone = np.array([
        expected_leaf_errors(
            probabilities, values, spec, leaf_indices[p : p + 1], incoming[p : p + 1],
            leaf_weights,
        )[0]
        for p in range(incoming.size)
    ])
    assert np.array_equal(alone, batch)


# ----------------------------------------------------------------------
# Signs and input checks
# ----------------------------------------------------------------------
def deterministic_instance():
    """Items that are certain to take one grid value, scored at and next to it."""
    rng = np.random.default_rng(966)
    values = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 40.0, 59))])
    probabilities = np.eye(values.size)
    leaf_indices = np.repeat(np.arange(values.size, dtype=np.int64), 3)
    incoming = np.stack([values, np.nextafter(values, np.inf), -0.0 * values], axis=1).ravel()
    return probabilities, values, leaf_indices, incoming, rng.uniform(0.5, 2.0, values.size)


@pytest.mark.parametrize("sanity", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("metric", METRICS)
def test_results_are_non_negative_with_positive_zeros(metric, sanity):
    spec = MetricSpec.of(metric, sanity)
    for instance in (deterministic_instance, mixed_instance, one_value_grid_instance):
        probabilities, values, leaf_indices, incoming, leaf_weights = instance()
        out = expected_leaf_errors(
            probabilities, values, spec, leaf_indices, incoming, leaf_weights
        )
        assert np.all(out >= 0.0)
        assert not np.any(np.signbit(out))


def test_clipping_is_exercised():
    # The squared sweep A - 2xB + x^2 C cancels at exact zeros: without the
    # clip some of these results would be negative.
    probabilities, values, leaf_indices, incoming, _ = deterministic_instance()
    for metric in ("sse", "ssre"):
        raw = _swept_errors(probabilities, values, MetricSpec.of(metric), leaf_indices, incoming)
        assert np.any(raw < 0.0), metric


@pytest.mark.parametrize("metric", METRICS)
def test_unsorted_grid_is_refused(metric):
    probabilities, values, leaf_indices, incoming, leaf_weights = mixed_instance()
    shuffled = values.copy()
    shuffled[[3, 4]] = shuffled[[4, 3]]
    with pytest.raises(EvaluationError, match="ascending"):
        expected_leaf_errors(
            probabilities, shuffled, MetricSpec.of(metric), leaf_indices, incoming, leaf_weights
        )
