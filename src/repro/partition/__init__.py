"""Partitioned synopses: sharded parallel builds over the ordered domain.

The single-domain dynamic programs of :mod:`repro.histograms` and
:mod:`repro.wavelets` cap both build latency and the domain sizes the
serving layer can realistically stand up.  This subsystem lifts that cap by
composition rather than by a new solver:

* a :class:`Partitioner` splits the ordered domain ``[0, n)`` into ``K``
  contiguous shards (equal-width, equal-mass, or explicit cuts);
* the build driver runs the unchanged per-shard DP sweeps concurrently
  (``ProcessPoolExecutor`` with a serial fallback), collecting each shard's
  full error-vs-budget curve from one tabulation;
* a :class:`BudgetAllocator` min-plus-combines the ``K`` curves to split the
  global budget *optimally* across shards — the same convexity-free
  combination the paper's error-tree DP performs per node, applied across
  shards (an exact DP, with a greedy heuristic kept for comparison);
* the result is a :class:`PartitionedSynopsis`, one of the fixed
  :class:`~repro.core.synopsis.Synopsis` kinds, which routes range queries to
  only the shards they overlap — so the store, the batch engine, the IO
  layer and the CLI all serve it with zero special-casing.

Everything is driven declaratively through
:class:`~repro.core.spec.SynopsisSpec` with ``kind="partitioned"`` and a
:class:`~repro.core.spec.PartitionSpec` block.  See the "Partitioned
synopses" section of DESIGN.md.
"""

from .allocator import Allocation, BudgetAllocator
from .builder import ShardBuild, build_shards
from .partitioner import Partitioner, shard_spans
from .synopsis import PartitionedSynopsis

__all__ = [
    "Partitioner",
    "shard_spans",
    "BudgetAllocator",
    "Allocation",
    "PartitionedSynopsis",
    "ShardBuild",
    "build_shards",
]
