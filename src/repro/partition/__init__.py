"""Partitioned synopses: sharded parallel builds over the ordered domain.

The single-domain dynamic programs of :mod:`repro.histograms` and
:mod:`repro.wavelets` cap both build latency and the domain sizes the
serving layer can realistically stand up.  This subsystem lifts that cap by
composition rather than by a new solver:

* :func:`shard_spans` splits the ordered domain ``[0, n)`` into ``K``
  contiguous shards (equal-width, equal-mass, or explicit cuts);
* the build driver runs the unchanged per-shard DP sweeps on a thread pool
  of ``min(K, os.cpu_count())`` threads (the sweeps spend their time in
  numpy and the compiled kernels, which release the GIL), collecting each
  shard's full error-vs-budget curve from one tabulation;
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
from .partitioner import shard_spans
from .synopsis import PartitionedSynopsis

__all__ = [
    "shard_spans",
    "BudgetAllocator",
    "Allocation",
    "PartitionedSynopsis",
    "ShardBuild",
    "build_shards",
]
