"""Tests for the serving layer: store caching, batch engine, replay driver."""

import ctypes
import platform

import numpy as np
import pytest

from repro import QueryWorkload, SynopsisSpec, build_synopsis
from repro.datasets import zipf_value_pdf
from repro.evaluation.errors import per_item_expected_errors
from repro.exceptions import EvaluationError
from repro.service import (
    BatchQueryEngine,
    QueryBatch,
    SynopsisStore,
    answer_batch,
    answer_serial,
    fingerprint_data,
    generate_query_mix,
    replay,
)


@pytest.fixture(scope="module")
def model():
    return zipf_value_pdf(96, skew=1.1, uncertainty=0.3, seed=5)


@pytest.fixture(scope="module")
def mixed_batch(model):
    return generate_query_mix(model.domain_size, 400, mix=(0.4, 0.4, 0.2), seed=3)


class TestFingerprint:
    def test_stable_across_round_trip(self, model, tmp_path):
        from repro.io import read_model, write_model

        path = write_model(model, tmp_path / "m.json")
        assert fingerprint_data(read_model(path)) == fingerprint_data(model)

    def test_sensitive_to_data(self, model):
        other = zipf_value_pdf(96, skew=1.1, uncertainty=0.3, seed=6)
        assert fingerprint_data(other) != fingerprint_data(model)

    def test_plain_vector(self):
        assert fingerprint_data([1.0, 2.0]) == fingerprint_data(np.array([1.0, 2.0]))
        assert fingerprint_data([1.0, 2.0]) != fingerprint_data([1.0, 3.0])

    def test_distributions_fingerprint(self, model):
        distributions = model.to_frequency_distributions()
        assert fingerprint_data(distributions) == fingerprint_data(distributions)


class TestSynopsisStore:
    SAE6 = SynopsisSpec(budget=6, metric="sae")

    def test_memory_hit_skips_rebuild(self, model, monkeypatch):
        store = SynopsisStore()
        calls = []
        import repro.service.store as store_module

        real_build = store_module.build

        def spying_build(data, spec):
            calls.append(spec.kind)
            return real_build(data, spec)

        monkeypatch.setattr(store_module, "build", spying_build)
        first = store.get_or_build(model, self.SAE6)
        second = store.get_or_build(model, self.SAE6)
        assert second is first
        assert calls == ["histogram"]
        assert store.stats.builds == 1
        assert store.stats.memory_hits == 1

    def test_disk_hit_survives_process(self, model, tmp_path):
        store = SynopsisStore(tmp_path / "store")
        built = store.get_or_build(model, self.SAE6)
        fresh = SynopsisStore(tmp_path / "store")
        loaded = store.get_or_build(model, self.SAE6)  # memory hit
        from_disk = fresh.get_or_build(model, self.SAE6)
        assert loaded is built
        assert from_disk == built
        assert fresh.stats.builds == 0
        assert fresh.stats.disk_hits == 1

    def test_distinct_configs_get_distinct_entries(self, model, tmp_path):
        store = SynopsisStore(tmp_path / "store")
        a = store.get_or_build(model, self.SAE6)
        b = store.get_or_build(model, self.SAE6.with_budget(8))
        c = store.get_or_build(model, SynopsisSpec(budget=6, metric="ssre"))
        d = store.get_or_build(model, SynopsisSpec(kind="wavelet", budget=6, metric="sae"))
        assert store.stats.builds == 4
        assert a.bucket_count == 6 and b.bucket_count == 8
        assert c != a
        assert d.term_count <= 6
        assert len(store) == 4

    def test_workload_is_part_of_the_key(self, model):
        store = SynopsisStore()
        uniform = store.get_or_build(model, self.SAE6)
        skewed = store.get_or_build(
            model,
            SynopsisSpec(
                budget=6, metric="sae",
                workload=QueryWorkload.zipf_hotspot(model.domain_size, skew=1.5, seed=1),
            ),
        )
        assert store.stats.builds == 2
        assert skewed is not uniform
        assert uniform is store.get_or_build(model, self.SAE6)

    def test_sanity_only_keys_relative_metrics(self, model):
        store = SynopsisStore()
        first = store.get_or_build(model, SynopsisSpec(budget=6, metric="sse", sanity=1.0))
        assert store.get_or_build(
            model, SynopsisSpec(budget=6, metric="sse", sanity=0.5)
        ) is first
        assert store.stats.builds == 1  # c is ignored by SSE, so no fragmentation
        store.get_or_build(model, SynopsisSpec(budget=6, metric="ssre", sanity=1.0))
        store.get_or_build(model, SynopsisSpec(budget=6, metric="ssre", sanity=0.5))
        assert store.stats.builds == 3  # but it changes the relative objectives

    def test_ignored_knobs_stay_out_of_the_key(self, model):
        store = SynopsisStore()

        def sae6(**knobs):
            return store.get_or_build(model, SynopsisSpec(budget=6, metric="sae", **knobs))

        first = sae6(sse_variant="fixed")
        # Only the SSE oracle reads sse_variant; only optimal builds read the
        # kernel; epsilon only matters to the approximate scheme.
        assert sae6(sse_variant="paper") is first
        assert sae6(epsilon=0.5) is first
        approx = sae6(method="approximate")
        assert sae6(method="approximate", kernel="exact") is approx
        assert store.stats.builds == 2

    def test_disk_writes_leave_no_scratch_files(self, model, tmp_path):
        store = SynopsisStore(tmp_path / "store")
        store.get_or_build(model, SynopsisSpec(budget=6, metric="sse"))
        names = sorted(entry.name for entry in (tmp_path / "store").iterdir())
        assert names == ["synopses.idx", "synopses.pack"]

    def test_clear_memory_keeps_disk(self, model, tmp_path):
        store = SynopsisStore(tmp_path / "store")
        spec = SynopsisSpec(budget=6, metric="sse")
        built = store.get_or_build(model, spec)
        store.clear_memory()
        again = store.get_or_build(model, spec)
        assert again == built
        assert store.stats.builds == 1
        assert store.stats.disk_hits == 1

    def test_stats_as_dict(self, model):
        store = SynopsisStore()
        store.get_or_build(model, SynopsisSpec(budget=4))
        stats = store.stats.as_dict()
        assert stats["builds"] == 1 and stats["lookups"] == 1


class TestLargeArrayMapping:
    """Opening a store fixes glibc's mmap threshold (see ``repro._malloc``)."""

    class _MallInfo2(ctypes.Structure):
        _fields_ = [
            (name, ctypes.c_size_t)
            for name in ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
                         "fsmblks", "uordblks", "fordblks", "keepcost")
        ]

    def test_large_arrays_stay_mapped_after_one_is_freed(self):
        if platform.libc_ver()[0] != "glibc":
            pytest.skip("the mmap threshold is a glibc setting")
        mallinfo2 = getattr(ctypes.CDLL(None), "mallinfo2", None)
        if mallinfo2 is None:
            pytest.skip("glibc before 2.33 has no mallinfo2")
        mallinfo2.argtypes = []
        mallinfo2.restype = self._MallInfo2
        SynopsisStore()
        # Under glibc's dynamic rule, freeing a 24 MB mapped block raises the
        # threshold to 24 MB and the 16 MB array below comes from the heap.
        freed = np.ones(3 << 20)
        del freed
        mapped = mallinfo2().hblkhd
        kept = np.ones(2 << 20)
        assert mallinfo2().hblkhd - mapped >= kept.nbytes


class TestQueryBatch:
    def test_constructors_and_counts(self):
        batch = QueryBatch.concat([
            QueryBatch.points([1, 5]),
            QueryBatch.range_sums([0], [9]),
            QueryBatch.range_avgs([2, 3], [4, 7]),
        ])
        assert len(batch) == 5
        assert batch.kind_counts() == {"point": 2, "range_sum": 1, "range_avg": 2}
        assert batch.max_item == 9
        assert batch.as_tuples()[0] == ("point", 1, 1)

    def test_from_tuples_round_trip(self):
        tuples = [("point", 3), ("range_sum", 0, 7), ("range_avg", 2, 2)]
        batch = QueryBatch.from_tuples(tuples)
        assert batch.as_tuples() == [("point", 3, 3), ("range_sum", 0, 7), ("range_avg", 2, 2)]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(EvaluationError):
            QueryBatch.range_sums([5], [3])  # end < start
        with pytest.raises(EvaluationError):
            QueryBatch.from_tuples([("mystery", 1)])
        with pytest.raises(EvaluationError):
            QueryBatch.from_tuples([("point", 1, 2)])
        with pytest.raises(EvaluationError):
            QueryBatch(np.array([9]), np.array([0]), np.array([0]))

    def test_empty_batch(self):
        batch = QueryBatch.concat([])
        assert len(batch) == 0 and batch.max_item == -1


class TestBatchQueryEngine:
    @pytest.mark.parametrize("kind,budget", [("histogram", 8), ("wavelet", 10)])
    def test_batch_matches_serial(self, model, mixed_batch, kind, budget):
        synopsis = build_synopsis(model, budget, synopsis=kind, metric="sae")
        engine = BatchQueryEngine(synopsis)
        assert np.allclose(engine.answer(mixed_batch), engine.answer_serial(mixed_batch))

    def test_module_level_helpers(self, model, mixed_batch):
        synopsis = build_synopsis(model, 8, metric="sse")
        assert np.allclose(
            answer_batch(synopsis, mixed_batch), answer_serial(synopsis, mixed_batch)
        )

    def test_point_and_range_semantics(self, model):
        synopsis = build_synopsis(model, 8, metric="sse")
        batch = QueryBatch.from_tuples(
            [("point", 5), ("range_sum", 0, 9), ("range_avg", 0, 9)]
        )
        point, range_sum, range_avg = BatchQueryEngine(synopsis).answer(batch)
        assert point == pytest.approx(synopsis.estimate(5))
        assert range_sum == pytest.approx(synopsis.range_sum_estimate(0, 9))
        assert range_avg == pytest.approx(range_sum / 10.0)

    def test_cumulative_error_attribution(self, model, mixed_batch):
        synopsis = build_synopsis(model, 8, metric="sae")
        engine = BatchQueryEngine.from_model(synopsis, model, "sae")
        attributed = engine.attribute_errors(mixed_batch)
        per_item = per_item_expected_errors(model, synopsis, "sae")
        for (kind, start, end), got in zip(mixed_batch.as_tuples(), attributed):
            expected = per_item[start : end + 1].sum()
            if kind == "range_avg":
                expected /= end - start + 1
            assert got == pytest.approx(expected)

    def test_maximum_error_attribution(self, model, mixed_batch):
        synopsis = build_synopsis(model, 8, metric="sae")
        engine = BatchQueryEngine.from_model(synopsis, model, "mae")
        attributed = engine.attribute_errors(mixed_batch)
        per_item = per_item_expected_errors(model, synopsis, "mae")
        for (kind, start, end), got in zip(mixed_batch.as_tuples(), attributed):
            assert got == pytest.approx(per_item[start : end + 1].max())

    def test_attribution_requires_errors(self, model, mixed_batch):
        synopsis = build_synopsis(model, 8, metric="sse")
        with pytest.raises(EvaluationError):
            BatchQueryEngine(synopsis).attribute_errors(mixed_batch)

    def test_out_of_domain_batch_rejected(self, model):
        synopsis = build_synopsis(model, 8, metric="sse")
        too_far = QueryBatch.points([model.domain_size])
        with pytest.raises(EvaluationError):
            BatchQueryEngine(synopsis).answer(too_far)

    def test_unsupported_synopsis_rejected(self):
        with pytest.raises(EvaluationError):
            BatchQueryEngine(np.zeros(4))


class TestReplay:
    def test_query_mix_shape_and_bounds(self):
        batch = generate_query_mix(64, 300, mix=(1, 1, 1), seed=2)
        assert len(batch) == 300
        assert batch.starts.min() >= 0 and batch.max_item < 64
        counts = batch.kind_counts()
        assert all(counts[name] > 0 for name in counts)

    def test_workload_biases_the_mix(self):
        hotspot = QueryWorkload.zipf_hotspot(256, skew=2.0, hotspot=0, seed=1)
        batch = generate_query_mix(256, 2000, workload=hotspot, mix=(1, 0, 0), seed=4)
        assert np.median(batch.starts) < 64  # traffic concentrates near the hotspot

    def test_mix_validation(self):
        with pytest.raises(EvaluationError):
            generate_query_mix(64, 10, mix=(1, 1))
        with pytest.raises(EvaluationError):
            generate_query_mix(0, 10)

    def test_replay_report(self, model, mixed_batch):
        synopsis = build_synopsis(model, 8, metric="sse")
        engine = BatchQueryEngine(synopsis)
        report = replay(engine, mixed_batch, chunk_size=128, compare_serial=True)
        assert report["queries"] == len(mixed_batch)
        assert report["answers_match_serial"] is True
        assert report["qps"] > 0
        assert report["latency_ms"]["p95"] >= report["latency_ms"]["p50"]

    def test_replay_rejects_bad_chunk_size(self, model, mixed_batch):
        synopsis = build_synopsis(model, 8, metric="sse")
        with pytest.raises(EvaluationError):
            replay(BatchQueryEngine(synopsis), mixed_batch, chunk_size=0)


class TestBatchPrimitives:
    """The vectorised value-object methods the engine is built on."""

    @pytest.mark.parametrize("kind,budget", [("histogram", 8), ("wavelet", 10)])
    def test_range_sums_match_scalar(self, model, kind, budget):
        synopsis = build_synopsis(model, budget, synopsis=kind, metric="sse")
        rng = np.random.default_rng(8)
        starts = rng.integers(0, model.domain_size, size=80)
        ends = np.minimum(
            model.domain_size - 1, starts + rng.integers(0, 40, size=80)
        )
        batch_sums = synopsis.range_sum_estimates(starts, ends)
        scalar = [synopsis.range_sum_estimate(int(s), int(e)) for s, e in zip(starts, ends)]
        assert np.allclose(batch_sums, scalar)

    @pytest.mark.parametrize("kind,budget", [("histogram", 8), ("wavelet", 10)])
    def test_point_batch_matches_estimates(self, model, kind, budget):
        synopsis = build_synopsis(model, budget, synopsis=kind, metric="sse")
        items = np.arange(model.domain_size)
        assert np.allclose(synopsis.estimate_batch(items), synopsis.estimates())

    def test_wavelet_non_power_of_two_domain(self):
        model = zipf_value_pdf(21, skew=1.0, uncertainty=0.2, seed=9)
        synopsis = build_synopsis(model, 5, synopsis="wavelet", metric="sse")
        dense = synopsis.estimates()
        starts = np.array([0, 3, 20])
        ends = np.array([20, 10, 20])
        expected = [dense[s : e + 1].sum() for s, e in zip(starts, ends)]
        assert np.allclose(synopsis.range_sum_estimates(starts, ends), expected)
