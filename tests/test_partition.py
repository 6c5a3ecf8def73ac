"""Partitioned-synopsis tests: partitioner, allocator, equivalence, serving.

The acceptance matrix of the subsystem:

* ``shards=1`` partitioned builds are bit-identical to the unpartitioned
  synopsis (retained structure and error) across metrics and base kinds;
* the exact min-plus allocator matches exhaustive enumeration of budget
  splits on small instances (and the greedy heuristic is never better);
* federated range-query routing agrees exactly with the concatenated
  estimate vector, and the batch engine / store / IO layer serve the
  ``"partitioned"`` kind with zero special-casing.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from repro import (
    FrequencyDistributions,
    PartitionSpec,
    PartitionedSynopsis,
    SynopsisSpec,
    build,
    expected_error,
)
from repro.cli import main
from repro.core.workload import QueryWorkload
from repro.exceptions import BudgetSweepWarning, SynopsisError, WorkerClampWarning
from repro.io import synopsis_from_dict, synopsis_to_dict
from repro.io.binary_format import SynopsisPack
from repro.partition import BudgetAllocator, Partitioner, build_shards, shard_spans
from repro.service import BatchQueryEngine, QueryBatch, SynopsisStore


@pytest.fixture(scope="module")
def frequencies() -> np.ndarray:
    rng = np.random.default_rng(20260727)
    return rng.poisson(12.0, 96).astype(float)


@pytest.fixture(scope="module")
def data(frequencies) -> FrequencyDistributions:
    return FrequencyDistributions.deterministic(frequencies)


def partitioned_spec(budget=12, shards=4, **kwargs) -> SynopsisSpec:
    partition_kwargs = {
        key: kwargs.pop(key)
        for key in ("strategy", "cuts", "allocation", "base", "workers")
        if key in kwargs
    }
    return SynopsisSpec(
        kind="partitioned",
        budget=budget,
        partition=PartitionSpec(shards=shards, **partition_kwargs),
        **kwargs,
    )


# ----------------------------------------------------------------------
# Partitioner
# ----------------------------------------------------------------------
class TestPartitioner:
    def test_equal_width_tiles_with_balanced_sizes(self):
        spans = Partitioner("equal_width").spans(10, 3)
        assert spans == ((0, 3), (4, 6), (7, 9))
        widths = [end - start + 1 for start, end in spans]
        assert max(widths) - min(widths) <= 1

    def test_equal_mass_cuts_at_balanced_mass(self):
        masses = np.array([10.0, 10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        spans = Partitioner("equal_mass").spans(8, 2, masses=masses)
        # Half the mass sits in item 0; the balanced cut is right after it.
        assert spans == ((0, 0), (1, 7))

    def test_equal_mass_keeps_all_shards_non_empty(self):
        masses = np.zeros(6)
        masses[5] = 1.0  # all mass in the last item
        spans = Partitioner("equal_mass").spans(6, 3, masses=masses)
        assert spans[0][0] == 0 and spans[-1][1] == 5
        assert all(end >= start for start, end in spans)
        assert len(spans) == 3

    def test_equal_mass_survives_mass_concentrated_on_one_item(self):
        # Several raw cuts collide on a heavy hitter; the repaired cuts must
        # still tile the domain with strictly increasing non-empty spans.
        for position in (0, 4, 50, 99):
            masses = np.full(100, 1e-12)
            masses[position] = 1.0
            spans = Partitioner("equal_mass").spans(100, 4, masses=masses)
            assert len(spans) == 4
            assert spans[0][0] == 0 and spans[-1][1] == 99
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert start == end + 1
            assert all(end >= start for start, end in spans)

    def test_equal_mass_heavy_hitter_builds_end_to_end(self):
        frequencies = np.ones(64)
        frequencies[17] = 10_000.0
        data = FrequencyDistributions.deterministic(frequencies)
        synopsis = build(data, partitioned_spec(budget=8, shards=4, strategy="equal_mass"))
        assert synopsis.domain_size == 64 and synopsis.shard_count == 4

    def test_equal_mass_zero_mass_falls_back_to_equal_width(self):
        spans = Partitioner("equal_mass").spans(9, 3, masses=np.zeros(9))
        assert spans == Partitioner("equal_width").spans(9, 3)

    def test_equal_mass_needs_masses(self):
        with pytest.raises(SynopsisError, match="masses"):
            Partitioner("equal_mass").spans(8, 2)

    def test_explicit_cuts(self):
        spans = Partitioner("explicit", cuts=(3, 7)).spans(10, 3)
        assert spans == ((0, 2), (3, 6), (7, 9))

    @pytest.mark.parametrize("cuts", [(0, 4), (4, 4), (5, 4), (4, 12)])
    def test_explicit_rejects_bad_cuts(self, cuts):
        with pytest.raises(SynopsisError):
            Partitioner("explicit", cuts=cuts).spans(10, 3)

    def test_too_many_shards_rejected(self):
        with pytest.raises(SynopsisError, match="non-empty"):
            Partitioner("equal_width").spans(3, 4)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SynopsisError, match="unknown partition strategy"):
            Partitioner("round_robin")

    def test_shard_spans_uses_expectations_for_equal_mass(self, data):
        spans = shard_spans(data, PartitionSpec(shards=4, strategy="equal_mass"))
        masses = data.expectations()
        totals = [masses[start : end + 1].sum() for start, end in spans]
        # Balanced within one item's mass of the ideal quarter.
        assert max(totals) - min(totals) <= 2 * masses.max()


# ----------------------------------------------------------------------
# Budget allocator
# ----------------------------------------------------------------------
def random_curves(rng, shards, cap, histogram_like=True):
    curves = []
    for _ in range(shards):
        size = int(rng.integers(2, cap + 1))
        drops = rng.uniform(0.0, 5.0, size=size)
        curve = np.concatenate([[rng.uniform(20.0, 40.0)], drops]).cumsum()[::-1]
        curve = np.array(curve[:size], dtype=float)
        if histogram_like:
            curve = np.concatenate([[np.inf], curve])
        curves.append(curve)
    return curves


class TestBudgetAllocator:
    @pytest.mark.parametrize("aggregation", ["sum", "max"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_exact_matches_exhaustive_enumeration(self, aggregation, seed):
        rng = np.random.default_rng(seed)
        curves = random_curves(rng, shards=3, cap=6, histogram_like=seed % 2 == 0)
        allocator = BudgetAllocator(curves, aggregation=aggregation)
        for budget in range(allocator.min_total, allocator.max_total + 1):
            exact = allocator.allocate(budget, "exact")
            reference = allocator.brute_force(budget)
            assert exact.total_error == pytest.approx(reference.total_error, abs=1e-12)
            assert exact.total_budget == min(budget, allocator.max_total)
            assert exact.total_error == pytest.approx(
                allocator.predicted_error(exact.budgets), abs=1e-12
            )

    @pytest.mark.parametrize("aggregation", ["sum", "max"])
    def test_greedy_is_feasible_and_never_better_than_exact(self, aggregation):
        rng = np.random.default_rng(7)
        curves = random_curves(rng, shards=4, cap=5)
        allocator = BudgetAllocator(curves, aggregation=aggregation)
        for budget in range(allocator.min_total, allocator.max_total + 1):
            greedy = allocator.allocate(budget, "greedy")
            exact = allocator.allocate(budget, "exact")
            assert greedy.total_budget == min(budget, allocator.max_total)
            assert greedy.total_error >= exact.total_error - 1e-12
            assert greedy.total_error == pytest.approx(
                allocator.predicted_error(greedy.budgets), abs=1e-12
            )

    def test_non_convex_curve_defeats_greedy_but_not_exact(self):
        # Shard 0 only improves after two extra units (a concave step), which
        # steepest descent cannot see; the exact DP enumerates past it.
        curves = [
            np.array([10.0, 10.0, 0.0]),
            np.array([10.0, 9.0, 8.5]),
        ]
        allocator = BudgetAllocator(curves, aggregation="sum")
        exact = allocator.allocate(2, "exact")
        greedy = allocator.allocate(2, "greedy")
        assert exact.budgets == (2, 0) and exact.total_error == 10.0
        assert greedy.total_error > exact.total_error

    def test_sweep_shares_one_table_and_matches_single_allocations(self):
        rng = np.random.default_rng(9)
        curves = random_curves(rng, shards=3, cap=5)
        allocator = BudgetAllocator(curves)
        budgets = list(range(allocator.min_total, allocator.max_total + 1))
        swept = allocator.sweep(budgets, "exact")
        # One table sized to the largest budget serves the whole sweep...
        table = allocator._table
        assert table is not None and table.shape[1] == min(
            max(budgets), allocator.max_total
        ) + 1
        for budget in budgets:
            assert allocator._table is table  # ...and is never rebuilt
        # ...and every entry equals an independent single allocation.
        for budget, allocation in zip(budgets, swept):
            fresh = BudgetAllocator(curves).allocate(budget, "exact")
            assert allocation.total_error == pytest.approx(fresh.total_error)
            assert allocation.budgets == fresh.budgets

    def test_infeasible_budget_raises(self):
        allocator = BudgetAllocator([np.array([np.inf, 1.0])] * 3)
        with pytest.raises(SynopsisError, match="minimum"):
            allocator.allocate(2)

    def test_oversized_budget_clamps_to_max_total(self):
        allocator = BudgetAllocator([np.array([np.inf, 5.0, 1.0])] * 2)
        allocation = allocator.allocate(100)
        assert allocation.budgets == (2, 2)

    def test_curve_without_feasible_budget_rejected(self):
        with pytest.raises(SynopsisError, match="no feasible budget"):
            BudgetAllocator([np.array([np.inf, np.inf])])


# ----------------------------------------------------------------------
# Equivalence matrix: shards=1 is bit-identical to the unpartitioned build
# ----------------------------------------------------------------------
class TestSingleShardEquivalence:
    @pytest.mark.parametrize("metric", ["sse", "sae", "ssre", "mae"])
    def test_histogram_base(self, data, metric):
        flat = build(data, SynopsisSpec(budget=7, metric=metric))
        part = build(data, partitioned_spec(budget=7, shards=1, metric=metric))
        assert isinstance(part, PartitionedSynopsis)
        (shard,) = part.shards
        assert shard.boundaries == flat.boundaries
        assert np.array_equal(shard.representatives, flat.representatives)
        assert expected_error(data, part, metric) == expected_error(data, flat, metric)
        assert np.array_equal(part.estimates(), flat.estimates())

    @pytest.mark.parametrize("metric", ["sse", "sae", "mae"])
    def test_wavelet_base(self, metric):
        # A power-of-two slice keeps the padded transform aligned with the
        # item domain, so retained sets must agree exactly.
        rng = np.random.default_rng(3)
        data = FrequencyDistributions.deterministic(rng.poisson(9.0, 32).astype(float))
        flat = build(data, SynopsisSpec(kind="wavelet", budget=6, metric=metric))
        part = build(
            data, partitioned_spec(budget=6, shards=1, base="wavelet", metric=metric)
        )
        (shard,) = part.shards
        assert shard.coefficients == flat.coefficients
        assert expected_error(data, part, metric) == expected_error(data, flat, metric)

    def test_workload_shards_equivalence(self, data):
        weights = np.linspace(0.25, 2.0, data.domain_size)
        flat = build(data, SynopsisSpec(budget=6, metric="sae", workload=weights))
        part = build(
            data,
            partitioned_spec(budget=6, shards=1, metric="sae", workload=weights),
        )
        assert part.shards[0].boundaries == flat.boundaries


# ----------------------------------------------------------------------
# End-to-end allocation optimality on real builds
# ----------------------------------------------------------------------
class TestBuildAllocation:
    @pytest.mark.parametrize("metric,base", [("sse", "histogram"), ("sae", "wavelet")])
    def test_exact_allocation_matches_enumeration(self, data, metric, base):
        spec = partitioned_spec(budget=9, shards=3, metric=metric, base=base)
        spans = shard_spans(data, spec.partition)
        builds = build_shards(data, spans, spec)
        allocator = BudgetAllocator([b.curve for b in builds], aggregation="sum")
        exact = allocator.allocate(9, "exact")
        assert exact.total_error == pytest.approx(
            allocator.brute_force(9).total_error, rel=1e-12
        )
        # The assembled synopsis realises exactly the allocator's prediction.
        synopsis = build(data, spec)
        assert expected_error(data, synopsis, metric) == pytest.approx(
            exact.total_error, rel=1e-9
        )

    def test_sweep_shares_one_pass_and_orders_results(self, data):
        sweep = build(data, partitioned_spec(budget=(6, 9, 14), shards=3))
        errors = [expected_error(data, s, "sse") for s in sweep]
        assert errors == sorted(errors, reverse=True)  # more budget, less error
        single = build(data, partitioned_spec(budget=9, shards=3))
        assert sweep[1] == single

    def test_partitioned_build_beats_flat_on_error_per_budget_never(self, data):
        # Sanity: the flat DP optimises over all boundaries, so the
        # partitioned error can never be smaller under the same budget.
        flat = build(data, SynopsisSpec(budget=8))
        part = build(data, partitioned_spec(budget=8, shards=4))
        assert expected_error(data, part, "sse") >= expected_error(data, flat, "sse") - 1e-9

    def test_zero_weight_shard_gets_minimum_budget(self, data):
        weights = np.ones(data.domain_size)
        weights[: data.domain_size // 4] = 0.0  # first equal-width shard unqueried
        spec = partitioned_spec(budget=8, shards=4, metric="sae", workload=weights)
        builds = build_shards(data, shard_spans(data, spec.partition), spec)
        assert builds[0].budgets == (1,)  # unqueried shard: only the minimum is built
        assert all(len(b.budgets) > 1 for b in builds[1:])
        synopsis = build(data, spec)
        assert synopsis.shards[0].size == 1  # no error mass, no budget
        weighted = expected_error(data, synopsis, "sae", workload=weights)
        assert np.isfinite(weighted) and weighted >= 0

    def test_parallel_workers_match_serial(self, data):
        serial = build(data, partitioned_spec(budget=10, shards=4))
        parallel = build(data, partitioned_spec(budget=10, shards=4, workers=2))
        assert parallel == serial


# ----------------------------------------------------------------------
# The PartitionedSynopsis value object
# ----------------------------------------------------------------------
class TestPartitionedSynopsis:
    @pytest.fixture(scope="class")
    def synopsis(self, data) -> PartitionedSynopsis:
        return build(
            FrequencyDistributions.deterministic(data.expectations()),
            partitioned_spec(budget=13, shards=5, strategy="equal_mass"),
        )

    def test_routing_matches_estimate_vector(self, synopsis):
        rng = np.random.default_rng(11)
        n = synopsis.domain_size
        starts = rng.integers(0, n, 200)
        ends = np.minimum(n - 1, starts + rng.integers(0, n, 200))
        estimates = synopsis.estimates()
        got = synopsis.range_sum_estimates(starts, ends)
        want = np.array([estimates[a : b + 1].sum() for a, b in zip(starts, ends)])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)

    def test_scalar_paths_agree_with_batch(self, synopsis):
        n = synopsis.domain_size
        items = np.arange(n)
        np.testing.assert_array_equal(
            synopsis.estimate_batch(items),
            np.array([synopsis.estimate(i) for i in items]),
        )
        assert synopsis.range_sum_estimate(3, n - 2) == pytest.approx(
            float(synopsis.range_sum_estimates(np.array([3]), np.array([n - 2]))[0])
        )

    def test_size_is_sum_of_shard_sizes(self, synopsis):
        assert synopsis.size == sum(shard.size for shard in synopsis.shards)
        assert synopsis.size == 13

    def test_out_of_domain_rejected(self, synopsis):
        n = synopsis.domain_size
        with pytest.raises(SynopsisError, match="outside the domain"):
            synopsis.estimate(n)
        with pytest.raises(SynopsisError, match="outside the domain"):
            synopsis.range_sum_estimates(np.array([0]), np.array([n]))

    def test_dict_round_trip_is_exact(self, synopsis):
        payload = synopsis_to_dict(synopsis)
        assert payload["synopsis"] == "partitioned"
        clone = synopsis_from_dict(payload)
        assert clone == synopsis
        assert clone.spans == synopsis.spans

    def test_spans_must_tile(self):
        shard = build(
            FrequencyDistributions.deterministic(np.arange(4.0)), SynopsisSpec(budget=2)
        )
        with pytest.raises(SynopsisError, match="tile"):
            PartitionedSynopsis([(1, 4)], [shard])
        with pytest.raises(SynopsisError, match="covers"):
            PartitionedSynopsis([(0, 5)], [shard])

    def test_from_dict_validates_payload(self, synopsis):
        with pytest.raises(SynopsisError, match="shards"):
            PartitionedSynopsis.from_dict({"domain_size": 4, "shards": []})
        payload = synopsis_to_dict(synopsis)
        payload["domain_size"] = synopsis.domain_size + 1
        with pytest.raises(SynopsisError, match="tile"):
            synopsis_from_dict(payload)


# ----------------------------------------------------------------------
# Spec integration
# ----------------------------------------------------------------------
class TestPartitionSpec:
    def test_requires_partition_block(self):
        with pytest.raises(SynopsisError, match="partition"):
            SynopsisSpec(kind="partitioned", budget=8)
        with pytest.raises(SynopsisError, match="partition"):
            SynopsisSpec(kind="histogram", budget=8, partition=PartitionSpec(shards=2))

    def test_histogram_base_needs_budget_per_shard(self):
        with pytest.raises(SynopsisError, match="one bucket per shard"):
            partitioned_spec(budget=3, shards=4)

    def test_partitioned_rejects_approximate_and_paper_sse(self):
        with pytest.raises(SynopsisError, match="approximate"):
            partitioned_spec(budget=8, shards=2, method="approximate")
        with pytest.raises(SynopsisError, match="paper"):
            partitioned_spec(budget=8, shards=2, sse_variant="paper")

    def test_partition_validation(self):
        with pytest.raises(SynopsisError, match="at least 1"):
            PartitionSpec(shards=0)
        with pytest.raises(SynopsisError, match="unknown partition strategy"):
            PartitionSpec(shards=2, strategy="hashed")
        with pytest.raises(SynopsisError, match="cuts"):
            PartitionSpec(shards=2, strategy="explicit")
        with pytest.raises(SynopsisError, match="cuts only apply"):
            PartitionSpec(shards=2, cuts=(4,))
        with pytest.raises(SynopsisError, match="unknown allocation mode"):
            PartitionSpec(shards=2, allocation="random")
        with pytest.raises(SynopsisError, match="do not nest"):
            PartitionSpec(shards=2, base="partitioned")
        with pytest.raises(SynopsisError, match="worker count"):
            PartitionSpec(shards=2, workers=-1)

    def test_spec_round_trip_and_keys(self):
        spec = partitioned_spec(
            budget=10, shards=3, strategy="explicit", cuts=(20, 50),
            allocation="greedy", metric="sae", workers=4,
        )
        clone = SynopsisSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.store_key("f" * 64) == spec.store_key("f" * 64)
        assert clone.partition.cuts == (20, 50)

    def test_workers_do_not_fragment_the_cache(self):
        serial = partitioned_spec(budget=10, shards=3)
        pooled = partitioned_spec(budget=10, shards=3, workers=8)
        assert serial.canonical() == pooled.canonical()
        assert serial.store_key("f" * 64) == pooled.store_key("f" * 64)
        # ... but the serialised form keeps the knob (as clamped, so the
        # round trip is stable on any machine).
        restored = SynopsisSpec.from_json(pooled.to_json()).partition.workers
        assert restored == pooled.partition.workers
        assert restored == min(8, os.cpu_count() or 8)

    def test_workers_clamped_to_cpu_count(self):
        cpus = os.cpu_count()
        assert cpus is not None  # the clamp is a no-op on exotic platforms
        with pytest.warns(WorkerClampWarning, match="clamping"):
            spec = PartitionSpec(shards=2, workers=cpus + 5)
        assert spec.workers == cpus
        with warnings.catch_warnings():
            # At or below the machine's CPU count nothing warns or changes.
            warnings.simplefilter("error", WorkerClampWarning)
            assert PartitionSpec(shards=2, workers=cpus).workers == cpus
            assert PartitionSpec(shards=2, workers=0).workers == 0
            assert PartitionSpec(shards=2).workers is None

    def test_partition_parameters_change_the_key(self):
        base = partitioned_spec(budget=10, shards=3)
        for other in (
            partitioned_spec(budget=10, shards=4),
            partitioned_spec(budget=10, shards=3, strategy="equal_mass"),
            partitioned_spec(budget=10, shards=3, allocation="greedy"),
            partitioned_spec(budget=10, shards=3, base="wavelet"),
        ):
            assert other.store_key("f" * 64) != base.store_key("f" * 64)

    def test_describe_names_the_partition(self):
        text = partitioned_spec(budget=10, shards=3, strategy="equal_mass").describe()
        assert "shards=3" in text and "equal_mass" in text and "histogram" in text

    def test_too_many_shards_for_domain_raises_at_build(self, data):
        spec = partitioned_spec(budget=100, shards=97)
        with pytest.raises(SynopsisError, match="non-empty"):
            build(data, spec)


class TestSweepNormalisation:
    """Satellite: budget sweeps are validated sorted-unique with a warning."""

    def test_duplicates_deduplicated_with_warning(self):
        with pytest.warns(BudgetSweepWarning, match="sorted and duplicate-free"):
            spec = SynopsisSpec(budget=(4, 4, 8))
        assert spec.budget == (4, 8)

    def test_unsorted_sweep_sorted_with_warning(self):
        with pytest.warns(BudgetSweepWarning):
            spec = SynopsisSpec(budget=(8, 2, 4))
        assert spec.budget == (2, 4, 8)

    def test_sorted_unique_sweep_stays_silent(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            spec = SynopsisSpec(budget=(2, 4, 8))
        assert spec.budget == (2, 4, 8)

    def test_normalised_sweep_builds_in_spec_order(self, data):
        with pytest.warns(BudgetSweepWarning):
            spec = SynopsisSpec(budget=(8, 2, 8))
        results = build(data, spec)
        assert [r.bucket_count for r in results] == [2, 8]


# ----------------------------------------------------------------------
# Serving integration: store, engine, CLI
# ----------------------------------------------------------------------
class TestServingIntegration:
    def test_store_round_trip_and_cache_hits(self, data, tmp_path):
        spec = partitioned_spec(budget=10, shards=4)
        store = SynopsisStore(tmp_path / "store")
        built = store.get_or_build(data, spec)
        assert store.stats.builds == 1
        again = store.get_or_build(data, spec)
        assert again is built and store.stats.memory_hits == 1

        fresh = SynopsisStore(tmp_path / "store")
        from_disk = fresh.get_or_build(data, spec)
        assert fresh.stats.disk_hits == 1 and fresh.stats.builds == 0
        assert from_disk == built
        assert isinstance(from_disk, PartitionedSynopsis)

    def test_store_sweep_uses_per_budget_keys(self, data):
        store = SynopsisStore()
        sweep = store.get_or_build(data, partitioned_spec(budget=(6, 10), shards=3))
        assert store.stats.builds == 1 and len(sweep) == 2
        single = store.get_or_build(data, partitioned_spec(budget=6, shards=3))
        assert store.stats.builds == 1  # served from the sweep's cached entry
        assert single == sweep[0]

    def test_engine_serves_partitioned_batches(self, data):
        synopsis = build(data, partitioned_spec(budget=12, shards=4))
        engine = BatchQueryEngine.from_model(synopsis, data, "sse")
        batch = QueryBatch.from_tuples(
            [("point", 5), ("range_sum", 10, 60), ("range_avg", 0, 95)]
        )
        answers = engine.answer(batch)
        np.testing.assert_allclose(answers, engine.answer_serial(batch), rtol=1e-12)
        errors = engine.attribute_errors(batch)
        assert errors.shape == (3,) and np.all(errors >= 0)


class TestStoreResidency:
    """Satellite: bounded in-memory residency with LRU eviction + clear_disk."""

    def test_lru_eviction_counts_and_order(self, data):
        store = SynopsisStore(max_memory_entries=2)
        specs = [SynopsisSpec(budget=b) for b in (2, 3, 4)]
        for spec in specs:
            store.get_or_build(data, spec)
        assert store.stats.evictions == 1
        assert len(store._memory) == 2
        # The oldest entry (budget 2) was evicted: looking it up rebuilds.
        store.get_or_build(data, specs[0])
        assert store.stats.builds == 4

    def test_memory_hit_refreshes_recency(self, data):
        store = SynopsisStore(max_memory_entries=2)
        first, second, third = (SynopsisSpec(budget=b) for b in (2, 3, 4))
        store.get_or_build(data, first)
        store.get_or_build(data, second)
        store.get_or_build(data, first)  # refresh: first is now most recent
        store.get_or_build(data, third)  # evicts second, not first
        store.get_or_build(data, first)
        assert store.stats.builds == 3  # first never rebuilt
        assert store.stats.memory_hits == 2

    def test_eviction_degrades_to_disk_hit(self, data, tmp_path):
        store = SynopsisStore(tmp_path / "store", max_memory_entries=1)
        store.get_or_build(data, SynopsisSpec(budget=2))
        store.get_or_build(data, SynopsisSpec(budget=3))  # evicts budget=2
        store.get_or_build(data, SynopsisSpec(budget=2))
        assert store.stats.evictions >= 1
        assert store.stats.disk_hits == 1 and store.stats.builds == 2

    def test_invalid_cap_rejected(self):
        with pytest.raises(SynopsisError, match="max_memory_entries"):
            SynopsisStore(max_memory_entries=0)

    def test_clear_disk_keeps_memory(self, data, tmp_path):
        store = SynopsisStore(tmp_path / "store")
        store.get_or_build(data, SynopsisSpec(budget=4))
        assert len(SynopsisPack(tmp_path / "store")) == 1
        store.clear_disk()
        assert len(SynopsisPack(tmp_path / "store")) == 0
        store.get_or_build(data, SynopsisSpec(budget=4))
        assert store.stats.memory_hits == 1  # memory layer survived
        store.clear_memory()
        store.get_or_build(data, SynopsisSpec(budget=4))
        assert store.stats.builds == 2  # both layers now cold

    def test_stats_dict_reports_evictions(self, data):
        store = SynopsisStore(max_memory_entries=1)
        store.get_or_build(data, SynopsisSpec(budget=2))
        store.get_or_build(data, SynopsisSpec(budget=3))
        assert store.stats.as_dict()["evictions"] == 1


class TestPartitionCli:
    @pytest.fixture
    def model_path(self, tmp_path):
        path = tmp_path / "model.json"
        assert main(["generate", "--dataset", "sensors", "--domain-size", "48",
                     "--seed", "3", "--output", str(path)]) == 0
        return path

    def test_serve_build_with_shards(self, model_path, tmp_path, capsys):
        store = tmp_path / "store"
        args = ["serve-build", "--input", str(model_path), "--store", str(store),
                "--budget", "8", "--shards", "4", "--partition-strategy", "equal_mass"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "PartitionedSynopsis" in out and "fresh build" in out
        assert main(args) == 0
        assert "cache" in capsys.readouterr().out

    def test_query_routes_through_partitioned_synopsis(self, model_path, tmp_path, capsys):
        assert main(["query", "--input", str(model_path), "--store",
                     str(tmp_path / "store"), "--budget", "8", "--shards", "2",
                     "--point", "3", "--range", "0:40"]) == 0
        out = capsys.readouterr().out
        assert "point[3]" in out and "range_sum[0:40]" in out

    def test_partition_flags_need_shards(self, model_path, tmp_path, capsys):
        assert main(["serve-build", "--input", str(model_path), "--store",
                     str(tmp_path / "store"), "--budget", "8",
                     "--allocation", "greedy"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_spec_file_conflicts_with_shards(self, model_path, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(partitioned_spec(budget=8, shards=2).to_json())
        store = tmp_path / "store"
        assert main(["serve-build", "--input", str(model_path), "--store", str(store),
                     "--spec", str(spec_path), "--shards", "4"]) == 2
        assert "--shards" in capsys.readouterr().err
        # The spec file alone serves the partitioned build end to end.
        assert main(["serve-build", "--input", str(model_path), "--store", str(store),
                     "--spec", str(spec_path)]) == 0
        assert "PartitionedSynopsis" in capsys.readouterr().out


class TestWorkloadDecomposition:
    def test_partitioned_weighted_error_decomposes_per_shard(self, data):
        weights = QueryWorkload(np.linspace(0.5, 3.0, data.domain_size))
        spec = partitioned_spec(budget=9, shards=3, metric="sae", workload=weights)
        synopsis = build(data, spec)
        total = expected_error(data, synopsis, "sae", workload=weights)
        per_shard = 0.0
        for (start, end), shard in zip(synopsis.spans, synopsis.shards):
            per_shard += expected_error(
                data.restrict(start, end), shard, "sae",
                workload=weights.restricted_to(start, end),
            )
        assert total == pytest.approx(per_shard, rel=1e-12)
