"""Shared expected-leaf-error evaluation for the restricted wavelet DPs.

Both restricted-DP solvers — the fast tabulated engine in
:mod:`repro.wavelets.nonsse` and the recursive reference oracle in
:mod:`repro.wavelets.reference` — score a candidate reconstruction value
``x`` at a data leaf ``l`` by the same quantity:

    w_l * E[err(g_l, x)] = w_l * sum_j Pr[g_l = V_j] * err(V_j, x),

with padding leaves (positions beyond the real domain) deterministically
zero and zero-weight leaves free.  This module evaluates that quantity for
an arbitrary *batch* of ``(leaf, value)`` pairs.

Summing all ``|V|`` grid terms per pair would cost ``O(pairs * |V|)``.
Instead every point error is written as a grid weight times a power of
``|V_j - x|`` — the weight ``g_j`` is 1, ``1/max(c, |V_j|)`` or
``1/max(c, |V_j|)^2`` — and the sum is swept off per-row prefix sums over
the sorted grid:

* **absolute metrics** (SAE, SARE, MAE, MARE): with ``CW``/``CWV`` the
  prefix sums of ``p*g`` and ``p*g*V`` and ``k = searchsorted(V, x)``, the
  terms below ``x`` contribute ``x*CW_below - CWV_below`` and the rest
  ``(CWV_total - CWV_below) - x*(CW_total - CW_below)``;
* **squared metrics** (SSE, SSRE): ``A - 2xB + x^2 C`` with
  ``A, B, C = sum p*g*V^2, sum p*g*V, sum p*g``.

Each grid reduction is a sequential per-row ``np.cumsum`` (totals are its
last column), never a BLAS product or an axis ``sum``: those may associate
differently for different batch shapes.  So a pair's result does not depend
on which other pairs share its batch, and the two solvers — one pair per
call in the reference, the whole leaf level at once in the engine — get
bit-identical leaf errors, hence bit-identical optima.  The sweep
subtracts, so results are clipped at ``+0.0``.
"""

from __future__ import annotations


import numpy as np

from ..core.metrics import MetricSpec
from ..exceptions import EvaluationError

__all__ = ["expected_leaf_errors", "leaf_weight_vector"]


def leaf_weight_vector(domain_size: int, length: int, workload) -> np.ndarray:
    """Per-leaf workload weights over the padded transform domain.

    Under the uniform (``None``) workload every leaf — including the zero
    padding up to the transform length — weighs one, matching the unweighted
    padded-domain objective.  An explicit workload weights the real items and
    assigns the padding leaves zero weight, since they are not queryable.
    """
    from ..core.workload import QueryWorkload

    coerced = QueryWorkload.coerce(workload, domain_size)
    if coerced is None:
        return np.ones(length)
    weights = np.zeros(length)
    weights[:domain_size] = coerced.weights
    return weights


def expected_leaf_errors(
    probabilities: np.ndarray,
    values: np.ndarray,
    spec: MetricSpec,
    leaf_indices: np.ndarray,
    incoming: np.ndarray,
    leaf_weights: np.ndarray,
) -> np.ndarray:
    """Weighted expected point errors of a batch of ``(leaf, incoming)`` pairs.

    Parameters
    ----------
    probabilities:
        The ``(n, V)`` per-item marginal probability matrix.
    values:
        The shared length-``V`` value grid, in ascending order.
    spec:
        The error metric.
    leaf_indices / incoming:
        Equal-length arrays: pair ``p`` asks for leaf ``leaf_indices[p]``
        approximated by the value ``incoming[p]``.  Indices at or beyond the
        real domain address padding leaves (deterministically zero).
    leaf_weights:
        Per-leaf workload weights over the padded domain.

    Memory is ``O(distinct real leaves * V + pairs)``: a few copies of the
    probability rows the batch touches.
    """
    values = np.asarray(values, dtype=float)
    if np.any(values[1:] < values[:-1]):
        raise EvaluationError("the value grid must be sorted in ascending order")
    leaf_indices = np.asarray(leaf_indices, dtype=np.int64)
    incoming = np.asarray(incoming, dtype=float)
    out = np.zeros(incoming.shape, dtype=float)
    if incoming.size == 0:
        return out
    domain_size = probabilities.shape[0]
    weights = leaf_weights[leaf_indices]
    live = weights != 0.0

    padding = live & (leaf_indices >= domain_size)
    if np.any(padding):
        out[padding] = weights[padding] * np.asarray(
            spec.point_error(0.0, incoming[padding]), dtype=float
        )

    real = np.nonzero(live & (leaf_indices < domain_size))[0]
    if real.size:
        errors = weights[real] * _swept_errors(
            probabilities, values, spec, leaf_indices[real], incoming[real]
        )
        # Clip the sweep's cancellation error; ``+ 0.0`` turns -0.0 into +0.0.
        out[real] = np.maximum(errors, 0.0) + 0.0
    return out


def _swept_errors(
    probabilities: np.ndarray,
    values: np.ndarray,
    spec: MetricSpec,
    rows: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Unweighted ``sum_j p[row, j] * err(V_j, x)`` per pair, by prefix sweeps."""
    # Each distinct row is swept once; ``slot`` maps a pair to its row's sweep.
    present = np.zeros(probabilities.shape[0], dtype=bool)
    present[rows] = True
    slot = (np.cumsum(present) - 1)[rows]
    weighted = np.asarray(probabilities, dtype=float)[present]
    if spec.relative:
        scale = np.maximum(float(spec.sanity), np.abs(values))
        weighted /= scale * scale if spec.squared else scale

    if spec.squared:
        c = np.cumsum(weighted, axis=1)[:, -1]
        weighted *= values
        b = np.cumsum(weighted, axis=1)[:, -1]
        weighted *= values
        a = np.cumsum(weighted, axis=1)[:, -1]
        return a[slot] - 2.0 * x * b[slot] + x * x * c[slot]

    # Column k of the padded prefix sums covers the grid values below V[k].
    cw = np.zeros((weighted.shape[0], values.size + 1))
    np.cumsum(weighted, axis=1, out=cw[:, 1:])
    cwv = np.zeros_like(cw)
    np.cumsum(weighted * values, axis=1, out=cwv[:, 1:])
    below = slot * cw.shape[1] + np.searchsorted(values, x)
    cw_below, cwv_below = cw.take(below), cwv.take(below)
    cw_total, cwv_total = cw[:, -1][slot], cwv[:, -1][slot]
    return x * cw_below - cwv_below + (cwv_total - cwv_below) - x * (cw_total - cw_below)
