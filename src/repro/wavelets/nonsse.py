"""Restricted wavelet thresholding for non-SSE error metrics (Section 4.2).

For error metrics other than SSE, greedy coefficient selection is no longer
optimal.  The paper extends the deterministic coefficient-tree dynamic
program to probabilistic data: the DP walks the Haar error tree deciding, for
every coefficient and every split of the remaining budget, whether to retain
the coefficient, and the *expected* point errors are evaluated only at the
leaves using the per-item frequency pdfs.

This module implements the **restricted** version (Theorem 8): retained
coefficients keep their expected values ``mu_{c_i}`` (the Haar coefficients
of the expected frequencies).  The *unrestricted* version — optimising over
the retained values as well — is explicitly deferred by the paper to its full
version and is out of scope here.

The solver is a tabulated, bottom-up, level-order formulation in the style
of the fast deterministic wavelet DPs (Guha & Harb):

* each depth ``d`` of the error tree is one fixed-shape ``(2^d, 2^(d+1))``
  array of incoming reconstruction values, one per subset of retained
  proper ancestors.  A child's row is its parent's row followed by the same
  values shifted by the parent's contribution, so every child row is found
  by arithmetic: no sorting, searching or index maps;
* all leaf errors for all candidate incoming values are evaluated in one
  batch by the shared prefix-sum sweep of :mod:`repro.wavelets.leaf_errors`;
* the budget min-plus combination at each level runs as broadcast NumPy over
  ``(incoming, left budget, right budget)`` tables read through strided
  views of the child level, and retained sets are reconstructed from
  back-pointers instead of carrying frozensets through every state.

One tabulation serves the *whole budget sweep*: the tables' budget row
``b`` holds the optimum for budget ``b``, so every ``b' <= B`` is read off
one solve, mirroring the histogram engine.  A node at depth ``d`` has exactly
``2^(d+1)`` states, i.e. ``O(n^2)`` states overall, the paper's
``O(n^2)``-style behaviour with vectorised constants.  The historical
recursive solver survives as :class:`repro.wavelets.reference.ReferenceWaveletDP`,
the equivalence oracle the tests and ``benchmarks/bench_wavelet_dp.py`` hold
this engine to — bit for bit, which is why both score leaves through that
one batch-independent function, form every incoming value by the same
``incoming ± contribution`` steps, and break ties identically (first
candidate in ``(keep-nothing, ascending left budget)`` order wins).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from ..core.metrics import DEFAULT_SANITY, ErrorMetric, MetricSpec
from ..core.wavelet import WaveletSynopsis
from ..exceptions import SynopsisError
from ..models.base import ProbabilisticModel
from ..models.frequency import FrequencyDistributions
from ..telemetry import span
from .coefficients import expected_coefficients
from .haar import next_power_of_two, normalisation_factors
from .leaf_errors import expected_leaf_errors, leaf_weight_vector

__all__ = [
    "restricted_wavelet_synopsis",
    "restricted_wavelet_sweep",
    "RestrictedWaveletDP",
]

#: Soft bound on the number of table cells one candidate block materialises;
#: larger levels are processed in blocks of parent nodes that fit within it.
_CELL_BUDGET = 1 << 21


class RestrictedWaveletDP:
    """Tabulated bottom-up dynamic program over the Haar error tree.

    Parameters
    ----------
    distributions:
        Per-item marginal frequency pdfs of the probabilistic input.
    metric:
        Any cumulative or maximum error metric.  Cumulative metrics combine
        subtree errors by summation, maximum metrics by ``max`` — the ``h``
        combiner of the paper's recurrences.
    workload:
        Optional per-item query weights; the DP then minimises the
        workload-weighted objective.

    One instance amortises across budgets: :meth:`solve` tabulates lazily up
    to the requested budget and any smaller budget is read off the same
    tables (:meth:`sweep` returns them all at once).

    State layout: detail node ``2^d + p`` sits at depth ``d``, row ``p``.
    Its ``m = 2^(d+1)`` incoming values are row ``p`` of the depth's value
    array, the root detail's being ``[0, mu_0/f_0]``.  Skipping the node's
    coefficient sends state ``(p, i)`` to child states ``(2p, i)`` and
    ``(2p+1, i)``; retaining it sends it to ``(2p, m+i)`` and
    ``(2p+1, m+i)``, whose values are the parent's shifted by ``+`` and
    ``-`` its contribution.  Equal values reached along different paths are
    kept as separate states.
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
        self._depths = self._length.bit_length() - 1
        self._factors = normalisation_factors(self._length)
        self._mu = expected_coefficients(distributions)
        self._values = distributions.values
        self._probs = distributions.probabilities
        self._leaf_weights = leaf_weight_vector(self._n, self._length, workload)
        self._contrib = self._mu / self._factors
        # Leaf errors are budget-independent and computed once; DP tables
        # are (re)built when a larger cap is requested.
        self._leaf_errors: np.ndarray | None = None
        self._choices: List[np.ndarray] = []
        self._cap: int | None = None
        self._errors: np.ndarray | None = None
        self._root_choice: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Budget-independent structure: leaf errors over the leaf value grid
    # ------------------------------------------------------------------
    def _ensure_leaf_errors(self) -> np.ndarray:
        """``(L, 2L)`` errors of every leaf for every incoming value it can see."""
        if self._leaf_errors is None:
            contrib = self._contrib
            incoming = np.array([[0.0, contrib[0]]])
            for depth in range(self._depths):
                nodes, m = incoming.shape
                shift = contrib[nodes : 2 * nodes, None]
                child = np.empty((2 * nodes, 2 * m))
                child[0::2, :m] = child[1::2, :m] = incoming
                np.add(incoming, shift, out=child[0::2, m:])
                np.subtract(incoming, shift, out=child[1::2, m:])
                incoming = child
            leaves, m = incoming.shape
            errors = expected_leaf_errors(
                self._probs,
                self._values,
                self._spec,
                np.repeat(np.arange(leaves), m),
                incoming.ravel(),
                self._leaf_weights,
            )
            self._leaf_errors = errors.reshape(leaves, m)
        return self._leaf_errors

    # ------------------------------------------------------------------
    # Budget-dependent tables
    # ------------------------------------------------------------------
    def _tabulate(self, cap: int) -> None:
        """Fill every level's ``(budget, node, incoming)`` error table and back-pointers.

        Row ``b`` of a table depends only on child rows ``<= b``, so the
        tables built for one cap serve every smaller budget unchanged — the
        all-budgets-in-one-pass sweep.
        """
        if self._cap is not None and self._cap >= cap:
            return
        with span("build.wavelet_dp", cap=cap, n=self._length):
            self._tabulate_levels(cap)

    def _tabulate_levels(self, cap: int) -> None:
        width = cap + 1
        table = self._ensure_leaf_errors()  # leaf level: budget-free
        choices: List[np.ndarray] = [None] * self._depths
        for depth in reversed(range(self._depths)):
            with span("build.wavelet_level", depth=depth, rows=(1 << depth) * (2 << depth)):
                table, choices[depth] = self._tabulate_level(table, cap)

        # Root: spend one unit on the overall average c_0 or not.  With no
        # detail levels (length 1) the root reads the budget-free leaf.
        top = table[:, 0] if self._depths else np.broadcast_to(table, (width, 2))
        skip, keep = top[:, 0], top[:, 1]
        errors = np.empty(width)
        root_choice = np.zeros(width, dtype=bool)
        errors[0] = skip[0]
        if cap >= 1:
            better = keep[:-1] < skip[1:]
            errors[1:] = np.where(better, keep[:-1], skip[1:])
            root_choice[1:] = better
        self._choices = choices
        self._errors = errors
        self._root_choice = root_choice
        self._cap = cap

    def _tabulate_level(self, child: np.ndarray, cap: int):
        """One depth's ``(cap + 1, nodes, m)`` error table and back-pointers.

        ``child`` is the next depth's table, or the ``(L, 2L)`` leaf errors.
        Its even rows are left children and odd rows right children; the
        first ``m`` values of a child row are reached by skipping the
        parent's coefficient and the last ``m`` by retaining it.  So each
        level reads its children through four strided views, copied block by
        block of parent nodes to budget-major ``(cap + 1, states)`` tables
        whose rows are contiguous.
        """
        width = cap + 1
        nodes, m = child.shape[-2] // 2, child.shape[-1] // 2
        rows = nodes * m
        combine = np.add if self._spec.cumulative else np.maximum
        table = np.empty((width, rows))
        choice = np.zeros((width, rows), dtype=np.int32)
        if child.ndim == 2:
            # Children are leaves: errors are budget-free, so every budget
            # split is the same candidate and the choice is only retain-or-not
            # (not-retain winning exact ties).
            skip = combine(child[0::2, :m], child[1::2, :m]).ravel()
            keep = combine(child[0::2, m:], child[1::2, m:]).ravel()
            table[0] = skip
            if cap >= 1:
                better = keep < skip
                table[1:] = np.where(better, keep, skip)
                choice[1:] = np.where(better, np.arange(2, width + 1)[:, None], 0)
        else:
            chunk = max(1, _CELL_BUDGET // ((2 * cap + 1) * m))  # parent nodes per block
            for start in range(0, nodes, chunk):
                stop = min(start + chunk, nodes)
                kids = child[:, 2 * start : 2 * stop]
                states = (stop - start) * m
                tl0 = kids[:, 0::2, :m].reshape(width, states)
                tl1 = kids[:, 0::2, m:].reshape(width, states)
                tr0 = kids[:, 1::2, :m].reshape(width, states)
                tr1 = kids[:, 1::2, m:].reshape(width, states)
                block = slice(start * m, stop * m)
                # Candidates for budget b, in the reference's order: skip
                # this coefficient with every split bl + br = b, then retain
                # it with every split bl + br = b - 1.  The minimum selects
                # without rounding, so the first candidate equal to it is the
                # one np.argmin would pick.
                for b in range(width):
                    cands = np.empty((2 * b + 1, states))
                    combine(tl0[: b + 1], tr0[b::-1], out=cands[: b + 1])
                    if b >= 1:
                        combine(tl1[:b], tr1[b - 1 :: -1], out=cands[b + 1 :])
                    best = np.minimum.reduce(cands, axis=0, out=table[b, block])
                    choice[b, block] = np.argmax(cands == best, axis=0)
        return table.reshape(width, nodes, m), choice.reshape(width, nodes, m)

    # ------------------------------------------------------------------
    # Back-pointer reconstruction
    # ------------------------------------------------------------------
    def _retained(self, budget: int) -> List[int]:
        """Retained coefficient indices for one budget, walked off the back-pointers.

        The walk visits ``(depth, p, i, b)`` states: node ``2^depth + p`` with
        the ``i``-th incoming value of its row and budget ``b``.  Its child
        states follow from the layout (see the class docstring), so no index
        map is stored.
        """
        keep_root = bool(self._root_choice[budget])
        retained = [0] if keep_root else []
        stack = [(0, 0, int(keep_root), budget - keep_root)] if self._depths else []
        while stack:
            depth, p, i, b = stack.pop()
            picked = int(self._choices[depth][b, p, i])
            keep = picked > b
            left_budget = picked - (b + 1) if keep else picked
            if keep:
                retained.append((1 << depth) + p)
            if depth + 1 < self._depths:
                j = (2 << depth) + i if keep else i
                stack.append((depth + 1, 2 * p, j, left_budget))
                stack.append((depth + 1, 2 * p + 1, j, b - keep - left_budget))
        return sorted(retained)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def prepare(self, max_budget: int) -> "RestrictedWaveletDP":
        """Tabulate for all budgets up to ``max_budget`` (idempotent); returns self."""
        if max_budget < 0:
            raise SynopsisError("the coefficient budget must be non-negative")
        self._tabulate(min(max_budget, self._length))
        return self

    def optimal_error(self, budget: int) -> float:
        """Optimal expected error for one budget (tabulating if needed)."""
        if budget < 0:
            raise SynopsisError("the coefficient budget must be non-negative")
        budget = min(budget, self._length)
        self._tabulate(budget)
        return float(self._errors[budget])

    def solve(self, budget: int) -> Tuple[float, WaveletSynopsis]:
        """Optimal restricted synopsis and its expected error for the given budget."""
        if budget < 0:
            raise SynopsisError("the coefficient budget must be non-negative")
        budget = min(budget, self._length)
        self._tabulate(budget)
        retained = self._retained(budget)
        coefficients = {int(index): float(self._mu[index]) for index in retained}
        return float(self._errors[budget]), WaveletSynopsis(coefficients, domain_size=self._n)

    def sweep(self, max_budget: int) -> List[Tuple[float, WaveletSynopsis]]:
        """Optimal ``(error, synopsis)`` for *every* budget ``0..max_budget``.

        One tabulation serves the whole sweep; each entry is a column read
        plus a back-pointer walk.
        """
        if max_budget < 0:
            raise SynopsisError("the coefficient budget must be non-negative")
        self._tabulate(min(max_budget, self._length))
        return [self.solve(budget) for budget in range(max_budget + 1)]


def _as_distributions(
    data: Union[ProbabilisticModel, FrequencyDistributions],
) -> FrequencyDistributions:
    return data.to_frequency_distributions() if isinstance(data, ProbabilisticModel) else data


def restricted_wavelet_synopsis(
    data: Union[ProbabilisticModel, FrequencyDistributions],
    coefficients: int,
    metric: Union[str, ErrorMetric, MetricSpec],
    *,
    sanity: float = DEFAULT_SANITY,
    workload=None,
) -> WaveletSynopsis:
    """Optimal *restricted* wavelet synopsis for a non-SSE (or workload-weighted) metric.

    Coefficient values are fixed to the Haar coefficients of the expected
    frequencies; the DP chooses which ``coefficients`` of them to retain so
    that the expected (optionally workload-weighted) error metric is minimised.
    """
    dp = RestrictedWaveletDP(_as_distributions(data), metric, sanity=sanity, workload=workload)
    _, synopsis = dp.solve(coefficients)
    return synopsis


def restricted_wavelet_sweep(
    data: Union[ProbabilisticModel, FrequencyDistributions],
    budgets: Sequence[int],
    metric: Union[str, ErrorMetric, MetricSpec],
    *,
    sanity: float = DEFAULT_SANITY,
    workload=None,
) -> List[WaveletSynopsis]:
    """Optimal restricted synopses for several budgets from one tabulation.

    The wavelet counterpart of
    :func:`repro.histograms.dp.optimal_histograms_for_budgets`: the DP is
    tabulated once for the largest budget and every smaller one is read off
    the same tables.
    """
    budgets = [int(b) for b in budgets]
    if not budgets:
        return []
    if any(b < 0 for b in budgets):
        raise SynopsisError("the coefficient budget must be non-negative")
    dp = RestrictedWaveletDP(_as_distributions(data), metric, sanity=sanity, workload=workload)
    dp.prepare(max(budgets))
    return [dp.solve(b)[1] for b in budgets]
