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

* every node's reachable incoming reconstruction values — one per subset of
  retained proper ancestors — are enumerated *exactly* into a sorted grid
  (no float rounding), level by level from the root;
* all leaf errors for all candidate incoming values are evaluated in one
  batch by the shared prefix-sum sweep of :mod:`repro.wavelets.leaf_errors`;
* the budget min-plus combination at each level runs as broadcast NumPy over
  ``(incoming, left budget, right budget)`` tables, and retained sets are
  reconstructed from back-pointers instead of carrying frozensets through
  every state.

One tabulation serves the *whole budget sweep*: the tables' column ``b``
holds the optimum for budget ``b``, so every ``b' <= B`` is read off one
solve, mirroring the histogram engine.  The state space is the reachable
``(node, incoming)`` pairs — at most ``2^(depth+1)`` incoming values for a
node at the given depth, i.e. ``O(n^2)`` states overall, the paper's
``O(n^2)``-style behaviour with vectorised constants.  The historical
recursive solver survives as :class:`repro.wavelets.reference.ReferenceWaveletDP`,
the equivalence oracle the tests and ``benchmarks/bench_wavelet_dp.py`` hold
this engine to — bit for bit, which is why both score leaves through that
one batch-independent function and break ties identically (first candidate
in ``(keep-nothing, ascending left budget)`` order wins).
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
#: larger levels are processed in row chunks of this many cells.
_CELL_BUDGET = 1 << 21


class _Level:
    """One depth of the error tree, tabulated over its ``(node, incoming)`` rows.

    Rows are the concatenation, in increasing node order, of every node's
    incoming-value grid.  ``left0``/``right0`` map each row to the child-level
    rows reached when the node's coefficient is *not* retained, ``left1``/
    ``right1`` when it is (incoming shifted by ``±mu/factor``).
    """

    __slots__ = (
        "node_of_row", "left0", "left1", "right0", "right1", "table", "choice",
    )

    def __init__(self, node_of_row, left0, left1, right0, right1):
        self.node_of_row = node_of_row
        self.left0 = left0
        self.left1 = left1
        self.right0 = right0
        self.right1 = right1
        self.table = None
        self.choice = None


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
    to the requested budget and any smaller budget is a column read of the
    same tables (:meth:`sweep` returns them all at once).
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
        self._contrib = self._mu / self._factors
        # Budget-independent structure (grids, child maps, leaf errors) is
        # built once; DP tables are (re)built when a larger cap is requested.
        self._levels: List[_Level] | None = None
        self._leaf_errors: np.ndarray | None = None
        self._root_rows: Tuple[int, int] | None = None
        self._cap: int | None = None
        self._errors: np.ndarray | None = None
        self._root_choice: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Budget-independent structure: incoming grids, child maps, leaf errors
    # ------------------------------------------------------------------
    def _ensure_structure(self) -> None:
        if self._levels is not None or self._length == 1:
            return
        length = self._length
        contrib = self._contrib

        # Reachable incoming grids, enumerated exactly top-down: a child's
        # grid is its parent's grid united with the parent grid shifted by
        # the parent's contribution (+ for left children, - for right).
        grids: List[np.ndarray | None] = [None] * (2 * length)
        grids[1] = np.unique(np.array([0.0, contrib[0]]))
        for node in range(2, 2 * length):
            base = grids[node // 2]
            shifted = base + contrib[node // 2] if node % 2 == 0 else base - contrib[node // 2]
            grids[node] = np.unique(np.concatenate([base, shifted]))

        def offsets_for(first: int, count: int) -> np.ndarray:
            sizes = [grids[first + i].size for i in range(count)]
            return np.concatenate([[0], np.cumsum(sizes)])

        depth_count = length.bit_length() - 1
        levels: List[_Level] = []
        for depth in range(depth_count):
            first = 1 << depth
            count = first
            child_offsets = offsets_for(2 * first, 2 * count)
            node_of_row, left0, left1, right0, right1 = [], [], [], [], []
            for node in range(first, 2 * first):
                grid = grids[node]
                left, right = 2 * node, 2 * node + 1
                left_base = child_offsets[left - 2 * first]
                right_base = child_offsets[right - 2 * first]
                node_of_row.append(np.full(grid.size, node, dtype=np.int64))
                left0.append(left_base + np.searchsorted(grids[left], grid))
                left1.append(left_base + np.searchsorted(grids[left], grid + contrib[node]))
                right0.append(right_base + np.searchsorted(grids[right], grid))
                right1.append(right_base + np.searchsorted(grids[right], grid - contrib[node]))
            levels.append(
                _Level(
                    np.concatenate(node_of_row),
                    np.concatenate(left0),
                    np.concatenate(left1),
                    np.concatenate(right0),
                    np.concatenate(right1),
                )
            )

        root_grid = grids[1]
        self._root_rows = (
            int(np.searchsorted(root_grid, 0.0)),
            int(np.searchsorted(root_grid, contrib[0])),
        )
        self._levels = levels

        # All leaf errors for all candidate incoming values, one batch.
        leaf_index = np.concatenate(
            [np.full(grids[length + leaf].size, leaf, dtype=np.int64) for leaf in range(length)]
        )
        leaf_incoming = np.concatenate([grids[length + leaf] for leaf in range(length)])
        self._leaf_errors = expected_leaf_errors(
            self._probs, self._values, self._spec, leaf_index, leaf_incoming, self._leaf_weights
        )

    # ------------------------------------------------------------------
    # Budget-dependent tables
    # ------------------------------------------------------------------
    def _combine(self, left, right, out=None):
        if self._spec.cumulative:
            return np.add(left, right, out=out)
        return np.maximum(left, right, out=out)

    def _tabulate(self, cap: int) -> None:
        """Fill every level's ``(row, budget)`` error table and back-pointers.

        Column ``b`` of a table depends only on child columns ``<= b``, so
        the tables built for one cap serve every smaller budget unchanged —
        the all-budgets-in-one-pass sweep.
        """
        if self._cap is not None and self._cap >= cap:
            return
        with span("build.wavelet_dp", cap=cap, n=self._length):
            self._tabulate_levels(cap)

    def _tabulate_levels(self, cap: int) -> None:
        width = cap + 1

        if self._length == 1:
            errors = expected_leaf_errors(
                self._probs,
                self._values,
                self._spec,
                np.zeros(2, dtype=np.int64),
                np.array([0.0, self._contrib[0]]),
                self._leaf_weights,
            )
            keep = errors[1] < errors[0]
            self._errors = np.full(width, errors[1] if keep else errors[0])
            self._errors[0] = errors[0]
            self._root_choice = np.full(width, keep, dtype=bool)
            self._root_choice[0] = False
            self._cap = cap
            return

        self._ensure_structure()
        child_table: np.ndarray = self._leaf_errors  # leaf level: budget-free
        depth = len(self._levels)
        for level in reversed(self._levels):
            depth -= 1
            rows = level.node_of_row.size
            with span("build.wavelet_level", depth=depth, rows=rows):
                table = np.empty((rows, width))
                choice = np.empty((rows, width), dtype=np.int32)
                chunk = max(1, _CELL_BUDGET // max(1, 2 * cap + 1))
                for start in range(0, rows, chunk):
                    stop = min(start + chunk, rows)
                    block = slice(start, stop)
                    tl0 = child_table[level.left0[block]]
                    tl1 = child_table[level.left1[block]]
                    tr0 = child_table[level.right0[block]]
                    tr1 = child_table[level.right1[block]]
                    if child_table.ndim == 1:
                        # Children are leaves: errors are budget-free, so every
                        # budget split is the same candidate and the choice is
                        # only retain-or-not (not-retain winning exact ties).
                        base0 = self._combine(tl0, tr0)
                        base1 = self._combine(tl1, tr1)
                        table[block, 0] = base0
                        choice[block, 0] = 0
                        if cap >= 1:
                            keep = base1 < base0
                            table[block, 1:] = np.where(keep, base1, base0)[:, None]
                            for b in range(1, width):
                                choice[block, b] = np.where(keep, b + 1, 0)
                    else:
                        # Candidates for budget b, in the reference's order:
                        # skip this coefficient with every split bl + br = b,
                        # then retain it with every split bl + br = b - 1.
                        for b in range(width):
                            cands = np.empty((stop - start, 2 * b + 1))
                            self._combine(tl0[:, : b + 1], tr0[:, b::-1], out=cands[:, : b + 1])
                            if b >= 1:
                                self._combine(tl1[:, :b], tr1[:, b - 1 :: -1], out=cands[:, b + 1 :])
                            choice[block, b] = np.argmin(cands, axis=1)
                            table[block, b] = np.min(cands, axis=1)
                level.table = table
                level.choice = choice
                child_table = table

        # Root: spend one unit on the overall average c_0 or not.
        row0, row1 = self._root_rows
        top = self._levels[0].table
        errors = np.empty(width)
        root_choice = np.zeros(width, dtype=bool)
        errors[0] = top[row0, 0]
        if cap >= 1:
            skip, keep = top[row0, 1:], top[row1, :-1]
            better = keep < skip
            errors[1:] = np.where(better, keep, skip)
            root_choice[1:] = better
        self._errors = errors
        self._root_choice = root_choice
        self._cap = cap

    # ------------------------------------------------------------------
    # Back-pointer reconstruction
    # ------------------------------------------------------------------
    def _retained(self, budget: int) -> List[int]:
        """Retained coefficient indices for one budget, walked off the back-pointers."""
        keep_root = bool(self._root_choice[budget])
        if self._length == 1:
            return [0] if keep_root else []
        retained = [0] if keep_root else []
        row0, row1 = self._root_rows
        stack = [(0, row1 if keep_root else row0, budget - 1 if keep_root else budget)]
        last = len(self._levels) - 1
        while stack:
            depth, row, b = stack.pop()
            level = self._levels[depth]
            picked = int(level.choice[row, b])
            if picked <= b:
                keep, left_budget = False, picked
            else:
                keep, left_budget = True, picked - (b + 1)
            if keep:
                retained.append(int(level.node_of_row[row]))
            if depth < last:
                if keep:
                    stack.append((depth + 1, int(level.left1[row]), left_budget))
                    stack.append((depth + 1, int(level.right1[row]), b - 1 - left_budget))
                else:
                    stack.append((depth + 1, int(level.left0[row]), left_budget))
                    stack.append((depth + 1, int(level.right0[row]), b - left_budget))
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
