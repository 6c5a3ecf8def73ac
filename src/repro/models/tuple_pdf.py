"""The tuple-pdf uncertainty model (Definition 2 of the paper).

The input is a sequence of *probabilistic tuples*.  Each tuple describes one
row of the uncertain relation as a set of mutually exclusive alternatives
``(item, probability)`` whose probabilities sum to at most one; any remaining
mass is the probability that the row produces no item at all.  Tuples are
mutually independent.  The frequency ``g_i`` of a domain item ``i`` in a
possible world is the number of tuples whose realised alternative equals
``i``.

This model is the one used by Trio-style systems and by the MayBMS/TPC-H
generated data in the paper's experiments; the *basic* model (Definition 1)
is the special case of single-alternative tuples (see
:mod:`repro.models.basic`).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..exceptions import DomainError, ModelValidationError
from .base import ProbabilisticModel
from .frequency import FrequencyDistributions
from .induced import induced_distributions_from_bernoullis
from .worlds import PossibleWorld

__all__ = ["ProbabilisticTuple", "TuplePdfModel"]

_PROB_TOLERANCE = 1e-9


class ProbabilisticTuple:
    """One uncertain row: mutually exclusive ``(item, probability)`` alternatives."""

    __slots__ = ("items", "probabilities")

    def __init__(self, alternatives: Iterable[Tuple[int, float]]):
        pairs = [(int(item), float(prob)) for item, prob in alternatives]
        if not pairs:
            raise ModelValidationError("a probabilistic tuple needs at least one alternative")
        items = np.array([item for item, _ in pairs], dtype=np.intp)
        probs = np.array([prob for _, prob in pairs], dtype=float)
        if np.any(items < 0):
            raise ModelValidationError("tuple alternatives must reference non-negative items")
        if np.any(probs < -_PROB_TOLERANCE):
            raise ModelValidationError("tuple alternative probabilities must be non-negative")
        probs = np.clip(probs, 0.0, None)
        total = float(probs.sum())
        if total > 1.0 + 1e-6:
            raise ModelValidationError(
                f"tuple alternative probabilities sum to {total:.6f} > 1"
            )
        if len(set(items.tolist())) != items.size:
            # Merge duplicate alternatives for the same item.
            merged: Dict[int, float] = {}
            for item, prob in zip(items.tolist(), probs.tolist()):
                merged[item] = merged.get(item, 0.0) + prob
            items = np.array(sorted(merged), dtype=np.intp)
            probs = np.array([merged[item] for item in items], dtype=float)
        order = np.argsort(items, kind="stable")
        self.items = items[order]
        self.probabilities = probs[order]
        self.items.setflags(write=False)
        self.probabilities.setflags(write=False)

    # ------------------------------------------------------------------
    @property
    def absent_probability(self) -> float:
        """Probability that this row contributes no item to the world."""
        return max(0.0, 1.0 - float(self.probabilities.sum()))

    @property
    def alternatives(self) -> List[Tuple[int, float]]:
        """The ``(item, probability)`` pairs, sorted by item."""
        return [(int(i), float(p)) for i, p in zip(self.items, self.probabilities)]

    def __len__(self) -> int:
        return int(self.items.size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProbabilisticTuple({self.alternatives!r})"

    def probability_of(self, item: int) -> float:
        """``Pr[t_j = item]``."""
        idx = np.searchsorted(self.items, item)
        if idx < self.items.size and self.items[idx] == item:
            return float(self.probabilities[idx])
        return 0.0

    def probability_in_range(self, start: int, end: int) -> float:
        """``Pr[start <= t_j <= end]`` for an inclusive item range."""
        if end < start:
            return 0.0
        lo = np.searchsorted(self.items, start, side="left")
        hi = np.searchsorted(self.items, end, side="right")
        return float(self.probabilities[lo:hi].sum())

    def max_item(self) -> int:
        return int(self.items.max())


class TuplePdfModel(ProbabilisticModel):
    """A probabilistic relation in the tuple-pdf model.

    Parameters
    ----------
    tuples:
        Iterable of :class:`ProbabilisticTuple` or raw alternative lists
        (iterables of ``(item, probability)`` pairs).
    domain_size:
        Size ``n`` of the ordered item domain.  Defaults to one past the
        largest referenced item.
    """

    def __init__(
        self,
        tuples: Iterable[ProbabilisticTuple | Iterable[Tuple[int, float]]],
        domain_size: Optional[int] = None,
    ):
        converted: List[ProbabilisticTuple] = []
        for entry in tuples:
            if isinstance(entry, ProbabilisticTuple):
                converted.append(entry)
            else:
                converted.append(ProbabilisticTuple(entry))
        if not converted:
            raise ModelValidationError("a tuple-pdf model needs at least one tuple")
        max_item = max(t.max_item() for t in converted)
        inferred = max_item + 1
        if domain_size is None:
            domain_size = inferred
        if domain_size < inferred:
            raise DomainError(
                f"domain_size {domain_size} is smaller than the largest referenced item {max_item}"
            )
        self._tuples = converted
        self._domain_size = int(domain_size)
        self._size = int(sum(len(t) for t in converted))
        self._frequency_cache: Optional[FrequencyDistributions] = None

    # ------------------------------------------------------------------
    # Structural properties
    # ------------------------------------------------------------------
    @property
    def tuples(self) -> List[ProbabilisticTuple]:
        """The probabilistic tuples making up the relation."""
        return list(self._tuples)

    @property
    def domain_size(self) -> int:
        return self._domain_size

    @property
    def size(self) -> int:
        return self._size

    @property
    def tuple_count(self) -> int:
        """Number of uncertain rows (tuples) in the input."""
        return len(self._tuples)

    # ------------------------------------------------------------------
    # Marginals
    # ------------------------------------------------------------------
    def item_occurrence_probabilities(self) -> Dict[int, List[float]]:
        """For each item, the list of per-tuple probabilities of realising it."""
        occurrences: Dict[int, List[float]] = {}
        for t in self._tuples:
            for item, prob in zip(t.items.tolist(), t.probabilities.tolist()):
                if prob > 0.0:
                    occurrences.setdefault(item, []).append(prob)
        return occurrences

    def to_frequency_distributions(self) -> FrequencyDistributions:
        if self._frequency_cache is None:
            self._frequency_cache = induced_distributions_from_bernoullis(
                self.item_occurrence_probabilities(), self._domain_size
            )
        return self._frequency_cache

    def expected_frequencies(self) -> np.ndarray:
        expectations = np.zeros(self._domain_size)
        for t in self._tuples:
            expectations[t.items] += t.probabilities
        return expectations

    def frequency_variances(self) -> np.ndarray:
        variances = np.zeros(self._domain_size)
        for t in self._tuples:
            variances[t.items] += t.probabilities * (1.0 - t.probabilities)
        return variances

    def range_presence_probabilities(self, start: int, end: int) -> np.ndarray:
        """``Pr[start <= t_j <= end]`` for every tuple ``j`` (used by the SSE cost)."""
        return np.array([t.probability_in_range(start, end) for t in self._tuples])

    # ------------------------------------------------------------------
    # Possible worlds
    # ------------------------------------------------------------------
    def world_count(self) -> int:
        count = 1
        for t in self._tuples:
            outcomes = len(t) + (1 if t.absent_probability > 0 else 0)
            count *= max(outcomes, 1)
        return count

    def iter_worlds(self) -> Iterator[PossibleWorld]:
        outcome_sets: List[List[Tuple[Optional[int], float]]] = []
        for t in self._tuples:
            outcomes: List[Tuple[Optional[int], float]] = [
                (int(item), float(prob))
                for item, prob in zip(t.items, t.probabilities)
                if prob > 0.0
            ]
            absent = t.absent_probability
            if absent > 0.0 or not outcomes:
                outcomes.append((None, absent))
            outcome_sets.append(outcomes)
        for combination in itertools.product(*outcome_sets):
            frequencies = np.zeros(self._domain_size)
            probability = 1.0
            for item, prob in combination:
                probability *= prob
                if item is not None:
                    frequencies[item] += 1.0
            if probability > 0.0:
                yield PossibleWorld(frequencies=frequencies, probability=probability)

    def sample_world(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        rng = self._normalise_rng(rng)
        frequencies = np.zeros(self._domain_size)
        for t in self._tuples:
            draw = rng.random()
            cumulative = 0.0
            for item, prob in zip(t.items, t.probabilities):
                cumulative += prob
                if draw < cumulative:
                    frequencies[item] += 1.0
                    break
        return frequencies

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_value_pdf(self):
        """Induced value-pdf model (marginals only; correlations are dropped)."""
        from .value_pdf import ValuePdfModel

        return ValuePdfModel.from_frequency_distributions(self.to_frequency_distributions())

    def __repr__(self) -> str:
        return (
            f"TuplePdfModel(n={self.domain_size}, tuples={self.tuple_count}, m={self.size})"
        )
