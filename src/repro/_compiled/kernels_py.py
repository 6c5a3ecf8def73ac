"""Pure-Python source of the compiled hot-loop kernels.

These functions are the *algorithmic source of truth* for the compiled
backend:

* the C backend (:mod:`repro._compiled.cc_backend`) is a line-by-line
  transliteration of them (scalar loops, builtins, ``np.empty``/``np.inf``
  only), kept honest by the equivalence tests that pin it bit-identical to
  the numpy reference kernels;
* the tests run these functions *interpreted* on small inputs against the
  same numpy kernels (the ``python`` backend), so the algorithm the C file
  mirrors stays verified even on machines without a C compiler.

Interpreted execution is orders of magnitude slower than the numpy kernels,
so this module is never selected as a production backend — the registry
falls back to the numpy kernels instead.

Both DP functions operate on the *quadratic prefix form* of the bucket
cost (see :meth:`repro.histograms.cost_base.BucketCostFunction.to_compiled_arrays`):

    cost(s, e) = clip(X - Y^2 / Z, 0),  X/Y/Z = A/B/C[e+1] - A/B/C[s],

with cost 0 wherever ``Z <= 0``.  The arithmetic — one multiply, one divide,
one subtract, in that order — reproduces the numpy oracles' span costs
bit-for-bit, which is what lets the compiled kernels inherit the registry's
bit-identical-optimum test matrix unchanged.

The third function, ``absolute_span_costs``, is a batch evaluator called
from numpy code: the SAE/SARE pooled-median span cost of
:meth:`repro.histograms.absolute.WeightedAbsoluteCost.costs_for_spans`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dp_divide_conquer", "dp_dense", "absolute_span_costs"]


def dp_divide_conquer(pa, pb, pc, errors, parents):
    """Monotone split-point divide-and-conquer DP over flat prefix arrays.

    Fills the whole ``(max_buckets, n)`` table: row 0 is the single-bucket
    seed, every later row is solved by the classic divide-and-conquer
    optimisation (valid when the oracle certifies the concave quadrangle
    inequality).  Ties break towards the smallest split, matching the exact
    kernel's ``argmin``.  ``O(B n log n)`` evaluations, ``O(log n)`` stack.
    """
    max_buckets = errors.shape[0]
    n = errors.shape[1]
    for j in range(n):
        x = pa[j + 1] - pa[0]
        y = pb[j + 1] - pb[0]
        z = pc[j + 1] - pc[0]
        if z > 0.0:
            c = x - (y * y) / z
            if c < 0.0:
                c = 0.0
        else:
            c = 0.0
        errors[0, j] = c
        parents[0, j] = -1
    # Explicit DFS stack of (j_lo, j_hi, s_lo, s_hi) subproblems; depth is
    # bounded by log2(n) + 2, so 64 slots cover any addressable domain.
    stack = np.empty((64, 4), dtype=np.int64)
    for b in range(1, max_buckets):
        for j in range(b):
            # Fewer items than buckets: carry the previous row's solution.
            errors[b, j] = errors[b - 1, j]
            parents[b, j] = parents[b - 1, j]
        stack[0, 0] = b
        stack[0, 1] = n - 1
        stack[0, 2] = b - 1
        stack[0, 3] = n - 2
        top = 1
        while top > 0:
            top -= 1
            j_lo = stack[top, 0]
            j_hi = stack[top, 1]
            s_lo = stack[top, 2]
            s_hi = stack[top, 3]
            if j_lo > j_hi:
                continue
            mid = (j_lo + j_hi) // 2
            # Candidate splits: [s_lo, min(s_hi, mid - 1)], never empty.
            hi = s_hi
            if mid - 1 < hi:
                hi = mid - 1
            best = np.inf
            best_s = s_lo
            for s in range(s_lo, hi + 1):
                x = pa[mid + 1] - pa[s + 1]
                y = pb[mid + 1] - pb[s + 1]
                z = pc[mid + 1] - pc[s + 1]
                if z > 0.0:
                    c = x - (y * y) / z
                    if c < 0.0:
                        c = 0.0
                else:
                    c = 0.0
                cand = errors[b - 1, s] + c
                if cand < best:
                    best = cand
                    best_s = s
            errors[b, mid] = best
            parents[b, mid] = best_s
            # Left half may not split later than best_s, right not earlier.
            if mid + 1 <= j_hi:
                stack[top, 0] = mid + 1
                stack[top, 1] = j_hi
                stack[top, 2] = best_s
                stack[top, 3] = s_hi
                top += 1
            if j_lo <= mid - 1:
                stack[top, 0] = j_lo
                stack[top, 1] = mid - 1
                stack[top, 2] = s_lo
                stack[top, 3] = best_s
                top += 1


def dp_dense(pa, pb, pc, errors, parents):
    """Dense min-plus DP recurrence over flat prefix arrays.

    The unconditional ``O(B n^2)`` row sweep with every span cost
    recomputed on the fly from the prefix arrays — no ``O(n^2)`` cost
    matrix is ever materialised, which is what lifts the dense ceiling of
    the numpy ``vectorized`` kernel.  Works for any quadratic-prefix
    oracle (no monotonicity needed); ties break towards the smallest split.
    """
    max_buckets = errors.shape[0]
    n = errors.shape[1]
    for j in range(n):
        x = pa[j + 1] - pa[0]
        y = pb[j + 1] - pb[0]
        z = pc[j + 1] - pc[0]
        if z > 0.0:
            c = x - (y * y) / z
            if c < 0.0:
                c = 0.0
        else:
            c = 0.0
        errors[0, j] = c
        parents[0, j] = -1
    for b in range(1, max_buckets):
        for j in range(b):
            errors[b, j] = errors[b - 1, j]
            parents[b, j] = parents[b - 1, j]
        for j in range(b, n):
            best = np.inf
            best_s = b - 1
            for s in range(b - 1, j):
                x = pa[j + 1] - pa[s + 1]
                y = pb[j + 1] - pb[s + 1]
                z = pc[j + 1] - pc[s + 1]
                if z > 0.0:
                    c = x - (y * y) / z
                    if c < 0.0:
                        c = 0.0
                else:
                    c = 0.0
                cand = errors[b - 1, s] + c
                if cand < best:
                    best = cand
                    best_s = s
            errors[b, j] = best
            parents[b, j] = best_s


def absolute_span_costs(below_w, below_wv, prefix_w, prefix_wv, values, starts, ends, out):
    """Pooled weighted-median costs of a batch of ``[starts[p], ends[p]]`` spans.

    The arrays are the prefix state of
    :class:`repro.histograms.absolute.WeightedAbsoluteCost`: ``(n+1, k)``
    item-prefixed cumulative weight and weighted-value profiles over the
    value grid ``values``, and their length-``n+1`` row totals.  Per span
    this replays the numpy batch path operation for operation: the median
    is the *first* grid column whose pooled profile reaches half the total
    weight (``k - 1`` if none does), found by a linear scan that stops
    there.  A bisection would not be exact: the pooled profile is the
    difference of two rounded prefix rows, so it can dip by an ulp.  The
    cost is evaluated at the median and its two neighbours (in that
    order), reduced like ``np.minimum`` (a NaN propagates; a tie takes the
    later candidate, which shows only in the sign of a zero), then clipped
    like ``np.maximum(cost, 0.0)``.
    """
    k = values.shape[0]
    for p in range(starts.shape[0]):
        s = starts[p]
        e = ends[p] + 1
        total_w = prefix_w[e] - prefix_w[s]
        total_wv = prefix_wv[e] - prefix_wv[s]
        half = total_w / 2.0
        median = k - 1
        for j in range(k):
            if below_w[e, j] - below_w[s, j] >= half:
                median = j
                break
        left = max(median - 1, 0)
        right = min(median + 1, k - 1)
        best = 0.0
        for c in range(3):
            idx = median
            if c == 1:
                idx = left
            elif c == 2:
                idx = right
            b_hat = values[idx]
            bw = below_w[e, idx] - below_w[s, idx]
            bwv = below_wv[e, idx] - below_wv[s, idx]
            cost = b_hat * bw - bwv + (total_wv - bwv) - b_hat * (total_w - bw)
            if c == 0 or not (best < cost or best != best):
                best = cost
        if best <= 0.0:
            best = 0.0
        out[p] = best
