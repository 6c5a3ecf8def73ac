"""Domain partitioning: split the ordered domain ``[0, n)`` into shards.

A partition is a tuple of contiguous, non-empty, inclusive item spans that
tile the domain exactly — the same invariant histogram buckets satisfy, one
level up.  Three strategies are provided (the names are pinned in
:data:`repro.core.spec.PARTITION_STRATEGIES`):

``equal_width``
    Shard sizes differ by at most one item (``numpy.array_split``
    convention: the leftover items go to the leading shards).
``equal_mass``
    Cut points balance the cumulative expected frequency mass, so dense
    regions get narrower shards (and therefore relatively more of the
    budget-resolution the allocator can spend on them).
``explicit``
    The caller supplies the cut points (the start index of every shard
    after the first) — for aligning shards with natural domain boundaries
    such as time windows or key ranges.

:class:`~repro.core.spec.PartitionSpec` validates the strategy, the cut
count and the cut order; :func:`shard_spans` checks only what needs the
data's domain size.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from ..core.spec import PartitionSpec
from ..exceptions import SynopsisError
from ..models.base import ProbabilisticModel
from ..models.frequency import FrequencyDistributions

__all__ = ["shard_spans"]

#: One shard: an inclusive ``(start, end)`` item span.
Span = Tuple[int, int]


def _spans_from_cuts(cuts: Sequence[int], domain_size: int) -> Tuple[Span, ...]:
    """Spans delimited by strictly increasing interior cut points."""
    starts = [0, *(int(c) for c in cuts)]
    ends = [*(int(c) - 1 for c in cuts), domain_size - 1]
    return tuple(zip(starts, ends))


def _equal_width_spans(domain_size: int, shards: int) -> Tuple[Span, ...]:
    base, leftover = divmod(domain_size, shards)
    sizes = [base + 1] * leftover + [base] * (shards - leftover)
    cuts = np.cumsum(sizes[:-1])
    return _spans_from_cuts(cuts.tolist(), domain_size)


def _equal_mass_spans(masses: np.ndarray, shards: int) -> Tuple[Span, ...]:
    domain_size = masses.size
    total = float(masses.sum())
    if total <= 0:
        # Massless data has no density signal; equal width is the only
        # principled tie-break (and keeps the result deterministic).
        return _equal_width_spans(domain_size, shards)
    cumulative = np.cumsum(masses)
    targets = total * np.arange(1, shards) / shards
    cuts = np.searchsorted(cumulative, targets, side="left") + 1
    # Mass can concentrate on few items; clamp every cut into the window
    # that keeps all shards non-empty (cut k needs k items to its left
    # and shards-1-k to its right), then restore strict monotonicity —
    # several raw cuts can collide on one heavy item.  Subtracting the
    # index turns "strictly increasing" into "non-decreasing", so a
    # running maximum repairs collisions without leaving the window
    # (every cut's slack ``cut_k - k`` is bounded by the shared
    # ``domain_size - shards``).
    indices = np.arange(1, shards)
    cuts = np.clip(cuts, indices, domain_size - (shards - indices))
    cuts = np.maximum.accumulate(cuts - indices) + indices
    return _spans_from_cuts(cuts.tolist(), domain_size)


def shard_spans(
    data: Union[ProbabilisticModel, FrequencyDistributions],
    spec: PartitionSpec,
) -> Tuple[Span, ...]:
    """The ``spec.shards`` inclusive item spans a partition spec induces over a dataset.

    The equal-mass strategy balances the data's expected frequencies.  More
    shards than items, or an explicit cut outside the domain, raise
    :class:`~repro.exceptions.SynopsisError`.
    """
    distributions = (
        data.to_frequency_distributions() if isinstance(data, ProbabilisticModel) else data
    )
    domain_size = distributions.domain_size
    shards = spec.shards
    if shards > domain_size:
        raise SynopsisError(
            f"cannot split a domain of {domain_size} items into {shards} "
            "non-empty shards"
        )
    if spec.strategy == "explicit":
        cuts = spec.cuts or ()
        if cuts and cuts[-1] >= domain_size:
            raise SynopsisError(
                f"shard cut {cuts[-1]} outside the domain [1, {domain_size})"
            )
        return _spans_from_cuts(cuts, domain_size)
    if spec.strategy == "equal_mass":
        return _equal_mass_spans(distributions.expectations(), shards)
    return _equal_width_spans(domain_size, shards)
