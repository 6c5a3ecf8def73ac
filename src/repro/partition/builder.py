"""Sharded build driver: parallel per-shard sweeps + optimal budget split.

The partitioned builder is a composition of machinery that already exists:

1. :func:`~repro.partition.partitioner.shard_spans` splits the domain into
   ``K`` contiguous shards;
2. every shard runs the unchanged per-kind DP **sweep** (one tabulation
   serves all budgets) over its slice of the data, on a thread pool of
   ``min(K, os.cpu_count())`` threads — the sweeps spend their time in numpy
   and the compiled kernels, which release the GIL;
3. each shard reports its full error-vs-budget curve — evaluated with the
   exact :func:`repro.evaluation.errors.expected_error` machinery, so curve
   entries *are* the shard's contribution to the global objective;
4. the :class:`~repro.partition.allocator.BudgetAllocator` min-plus-combines
   the curves into the optimal split of each requested global budget, and
   the chosen per-shard synopses are assembled into a
   :class:`~repro.partition.synopsis.PartitionedSynopsis`.

Because the curves are exact and the cumulative objectives decompose over
items (maximum objectives over shard maxima), the exact allocation is
provably optimal *among all per-shard budget splits of the given
partition* — the partitioned analogue of Eq. 2's bucket-boundary optimality.
A global budget sweep is served by one pass: the shard sweeps and the
allocator table are shared across all requested budgets.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core.builders import NormalisedData, build
from ..core.spec import SynopsisSpec
from ..core.synopsis import Synopsis
from ..evaluation.errors import expected_error
from ..exceptions import SynopsisError, held_warnings, warn_at_caller
from ..models.base import ProbabilisticModel
from ..models.frequency import FrequencyDistributions
from ..telemetry import adopt_spans, capture_spans, tracing_active
from ..telemetry import Span as TraceSpan
from ..telemetry import span as trace_span
from ..wavelets.haar import next_power_of_two
from .allocator import BudgetAllocator
from .partitioner import Span, shard_spans
from .synopsis import PartitionedSynopsis

__all__ = ["ShardBuild", "build_shards"]


@dataclass(frozen=True)
class _ShardTask:
    """Everything one pool thread needs to sweep a single shard."""

    span: Span
    data: FrequencyDistributions
    spec: SynopsisSpec  # base-kind sweep spec, shard-local workload inside
    zero_weight: bool  # the shard's workload weights are all zero


@dataclass(frozen=True)
class ShardBuild:
    """One shard's sweep result: its synopses and its error-vs-budget curve."""

    span: Span
    budgets: Tuple[int, ...]
    synopses: Tuple[Synopsis, ...]
    #: ``curve[b]`` is the shard's exact expected error under budget ``b``;
    #: ``numpy.inf`` marks infeasible budgets (index 0 for histograms).
    curve: np.ndarray

    def synopsis_for(self, budget: int) -> Synopsis:
        """The shard synopsis built for one allocated budget."""
        if budget not in self.budgets:
            raise SynopsisError(
                f"budget {budget} was not part of this shard's sweep {self.budgets}"
            )
        return self.synopses[budget - self.budgets[0]]


def _sweep_shard(task: _ShardTask) -> ShardBuild:
    """The actual shard sweep: build every feasible budget, evaluate the curve."""
    built = build(task.data, task.spec)
    synopses = tuple(built) if isinstance(built, list) else (built,)
    budgets = task.spec.budgets
    curve = np.full(budgets[-1] + 1, np.inf)
    if task.zero_weight:
        # A shard no query ever touches contributes zero error regardless of
        # its synopsis; the curve is exactly zero at every feasible budget.
        curve[list(budgets)] = 0.0
    else:
        for budget, synopsis in zip(budgets, synopses):
            curve[budget] = expected_error(
                task.data, synopsis, task.spec.metric, workload=task.spec.workload
            )
    return ShardBuild(task.span, budgets, synopses, curve)


def _solve_shard(
    task: _ShardTask,
) -> Tuple[ShardBuild, List[TraceSpan], List[Warning]]:
    """Sweep one shard on a pool thread, holding its spans and warnings.

    The thread runs in a copy of the caller's context, so it traces exactly
    when the caller does.  Its tree is captured detached from the caller's
    live span and its warnings are held, so the caller can graft the one and
    raise the other in shard order, on its own line.
    """
    with held_warnings() as held:
        if not tracing_active():
            return _sweep_shard(task), [], held
        with capture_spans(detach=True) as captured:
            with trace_span("build.shard", start=task.span[0], end=task.span[1]):
                result = _sweep_shard(task)
    return result, captured, held


def build_shards(
    data: NormalisedData,
    spans: Tuple[Span, ...],
    spec: SynopsisSpec,
) -> List[ShardBuild]:
    """Sweep every shard of a partitioned spec over the given spans.

    Each shard sweeps all budgets it could usefully receive: from the base
    kind's minimum (1 bucket / 0 coefficients) up to the smaller of its own
    capacity and what remains of the largest global budget once every other
    shard holds its minimum.  One DP tabulation per shard serves the whole
    sweep, and the curve entries are exact shard-restricted objectives.
    """
    if spec.kind != "partitioned" or spec.partition is None:
        raise SynopsisError("build_shards expects a partitioned SynopsisSpec")
    distributions = (
        data.to_frequency_distributions() if isinstance(data, ProbabilisticModel) else data
    )
    part = spec.partition
    minimum = 1 if part.base == "histogram" else 0
    max_budget = max(spec.budgets)
    tasks: List[_ShardTask] = []
    for start, end in spans:
        width = end - start + 1
        capacity = width if part.base == "histogram" else next_power_of_two(width)
        cap = max(minimum, min(capacity, max_budget - (len(spans) - 1) * minimum))
        weights = (
            None if spec.workload is None else spec.workload.restricted_to(start, end)
        )
        zero_weight = weights is not None and not np.any(weights > 0)
        if zero_weight:
            # No query ever touches this shard, so any synopsis serves with
            # zero error: build only the minimum budget and let the flat
            # zero curve steer the allocator away from spending more here.
            sweep_budgets: Tuple[int, ...] = (minimum,)
        else:
            sweep_budgets = tuple(range(minimum, cap + 1))
        shard_spec = spec.shard_spec(
            sweep_budgets,
            workload=None if zero_weight else weights,
        )
        tasks.append(
            _ShardTask(
                span=(start, end),
                data=distributions.restrict(start, end),
                spec=shard_spec,
                zero_weight=zero_weight,
            )
        )
    with ThreadPoolExecutor(max_workers=min(len(tasks), os.cpu_count() or 1)) as pool:
        # One context copy per task: a context can be entered by one thread
        # at a time.
        futures = [
            pool.submit(contextvars.copy_context().run, _solve_shard, task)
            for task in tasks
        ]
        outcomes = [future.result() for future in futures]
    builds: List[ShardBuild] = []
    for shard, tree, held in outcomes:
        adopt_spans(tree)
        for warning in held:
            warn_at_caller(warning)
        builds.append(shard)
    return builds


def build_partitioned(data: NormalisedData, spec: SynopsisSpec) -> List[Synopsis]:
    """The partitioned kind's builder: partition, sweep, allocate, assemble."""
    distributions = (
        data.to_frequency_distributions() if isinstance(data, ProbabilisticModel) else data
    )
    part = spec.partition
    assert part is not None  # paired at spec construction
    with trace_span("build.partition", strategy=part.strategy) as trace:
        spans = shard_spans(distributions, part)
        trace.set(shards=len(spans))
        builds = build_shards(distributions, spans, spec)
        with trace_span("build.allocate", shards=len(spans)):
            allocator = BudgetAllocator(
                [shard.curve for shard in builds],
                aggregation="sum" if spec.metric.cumulative else "max",
            )
            results: List[Synopsis] = []
            for allocation in allocator.sweep(list(spec.budgets), part.allocation):
                shard_synopses = [
                    shard.synopsis_for(share)
                    for shard, share in zip(builds, allocation.budgets)
                ]
                results.append(PartitionedSynopsis(spans, shard_synopses))
    return results
