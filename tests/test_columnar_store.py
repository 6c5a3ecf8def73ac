"""The columnar pack store: round-trips, corruption, eviction, fingerprint memo.

Covers the binary format (:mod:`repro.io.binary_format`), the store's only
on-disk format, and its integration into :class:`~repro.service.SynopsisStore`:

* hypothesis property tests: every synopsis kind round-trips through the pack
  with **bit-identical** column arrays and identical batch-query answers, and
  the loaded views are read-only (mutation raises);
* reload equivalence: synopses built through the store reload from a fresh
  store bit-identically, and answer like a JSON interchange round trip,
  across all three kinds x metrics x budgets;
* typed corruption: truncated packs, bad magic, unsupported versions, CRC
  mismatches, torn index records and malformed meta blobs all surface as
  :class:`~repro.StoreCorruptionError` naming the offending file;
* serving behaviour: LRU eviction degrades to a disk hit, stats attribute
  timings and disk hits, retired JSON stores and unknown formats are
  rejected and migrated entries keep hitting, the disk path runs through
  ``get``/``put``, compaction reclaims superseded payload bytes.
"""

import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Histogram,
    PartitionSpec,
    PartitionedSynopsis,
    StoreCorruptionError,
    SynopsisSpec,
    WaveletSynopsis,
)
from repro.core.synopsis import synopsis_kinds
from repro.datasets import zipf_value_pdf
from repro.exceptions import SynopsisError
from repro.io import synopsis_from_dict, synopsis_to_dict
from repro.io.binary_format import (
    ALIGNMENT,
    PACK_VERSION,
    SynopsisPack,
    _HEADER,
    _INDEX_MAGIC,
    _PACK_MAGIC,
    codec_for,
    codec_kinds,
)
from repro.service import SynopsisStore, fingerprint_data


# ----------------------------------------------------------------------
# Strategies: random value-object synopses of every kind
# ----------------------------------------------------------------------
representative_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def histograms(draw, max_domain=64):
    n = draw(st.integers(min_value=1, max_value=max_domain))
    cuts = draw(
        st.lists(st.integers(min_value=1, max_value=n - 1), unique=True, max_size=8)
        if n > 1
        else st.just([])
    )
    edges = [0, *sorted(cuts), n]
    reps = draw(
        st.lists(
            representative_values,
            min_size=len(edges) - 1,
            max_size=len(edges) - 1,
        )
    )
    boundaries = [(lo, hi - 1) for lo, hi in zip(edges[:-1], edges[1:])]
    return Histogram.from_boundaries(boundaries, reps, n)


@st.composite
def wavelets(draw, max_domain=64):
    n = draw(st.integers(min_value=1, max_value=max_domain))
    length = 1
    while length < n:
        length *= 2
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=length - 1), unique=True, max_size=12
        )
    )
    values = draw(
        st.lists(representative_values, min_size=len(indices), max_size=len(indices))
    )
    return WaveletSynopsis(dict(zip(indices, values)), n)


@st.composite
def partitioned_synopses(draw, max_shards=4):
    shard_count = draw(st.integers(min_value=1, max_value=max_shards))
    spans, shards, start = [], [], 0
    for index in range(shard_count):
        width = draw(st.integers(min_value=1, max_value=16))
        if index % 2:
            length = 1
            while length < width:
                length *= 2
            indices = draw(
                st.lists(
                    st.integers(min_value=0, max_value=length - 1),
                    unique=True,
                    max_size=6,
                )
            )
            values = draw(
                st.lists(
                    representative_values,
                    min_size=len(indices),
                    max_size=len(indices),
                )
            )
            shard = WaveletSynopsis(dict(zip(indices, values)), width)
        else:
            rep = draw(representative_values)
            shard = Histogram.from_boundaries([(0, width - 1)], [rep], width)
        spans.append((start, start + width - 1))
        shards.append(shard)
        start += width
    return PartitionedSynopsis(spans, shards)


any_synopsis = st.one_of(histograms(), wavelets(), partitioned_synopses())


def assert_columns_bit_identical(original, loaded):
    """Every payload column of ``loaded`` equals ``original``'s bit for bit."""
    kind = type(original).__name__
    assert type(loaded) is type(original)
    _, expected = codec_for(
        {"Histogram": "histogram", "WaveletSynopsis": "wavelet",
         "PartitionedSynopsis": "partitioned"}[kind]
    ).to_columns(original)
    _, found = codec_for(
        {"Histogram": "histogram", "WaveletSynopsis": "wavelet",
         "PartitionedSynopsis": "partitioned"}[kind]
    ).to_columns(loaded)
    assert set(expected) == set(found)
    for name, array in expected.items():
        assert found[name].dtype == np.asarray(array).dtype
        assert np.array_equal(found[name], array), name


def assert_same_answers(original, loaded):
    n = original.domain_size
    items = np.arange(n)
    starts = np.array([0, 0, n // 2, n - 1])
    ends = np.array([n - 1, n // 2, n - 1, n - 1])
    assert np.array_equal(original.estimates(), loaded.estimates())
    assert np.array_equal(original.estimate_batch(items), loaded.estimate_batch(items))
    assert np.array_equal(
        original.range_sum_estimates(starts, ends),
        loaded.range_sum_estimates(starts, ends),
    )


# ----------------------------------------------------------------------
# Property-based round trips
# ----------------------------------------------------------------------
class TestPackRoundTrip:
    @given(any_synopsis)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bit_identical(self, tmp_path_factory, synopsis):
        directory = tmp_path_factory.mktemp("pack")
        pack = SynopsisPack(directory)
        pack.put("k", synopsis, {"budget": 4})
        loaded, config = pack.get("k")
        assert config == {"budget": 4}
        assert_columns_bit_identical(synopsis, loaded)
        assert_same_answers(synopsis, loaded)
        # ... and again through a *fresh* pack over the same files (cold start).
        reopened = SynopsisPack(directory)
        cold, _ = reopened.get("k")
        assert_columns_bit_identical(synopsis, cold)
        assert_same_answers(synopsis, cold)

    @given(any_synopsis)
    @settings(max_examples=30, deadline=None)
    def test_loaded_views_are_read_only(self, tmp_path_factory, synopsis):
        directory = tmp_path_factory.mktemp("pack")
        pack = SynopsisPack(directory)
        pack.put("k", synopsis, {})
        loaded, _ = pack.get("k")
        kind = {
            Histogram: "histogram",
            WaveletSynopsis: "wavelet",
            PartitionedSynopsis: "partitioned",
        }[type(loaded)]
        _, columns = codec_for(kind).to_columns(loaded)
        for array in columns.values():
            if array.size:
                with pytest.raises(ValueError):
                    array[0] = 0

    @given(any_synopsis)
    @settings(max_examples=30, deadline=None)
    def test_segments_are_aligned(self, tmp_path_factory, synopsis):
        directory = tmp_path_factory.mktemp("pack")
        pack = SynopsisPack(directory)
        pack.put("k", synopsis, {})
        (row,) = pack.describe()
        assert row["segments"]
        for segment in row["segments"]:
            assert segment["offset"] % ALIGNMENT == 0


# ----------------------------------------------------------------------
# Reload equivalence: built-through-the-store synopses, pack vs interchange
# ----------------------------------------------------------------------
MODEL = zipf_value_pdf(48, skew=1.1, uncertainty=0.3, seed=11)


def spec_for(kind: str, metric: str, budget: int) -> SynopsisSpec:
    if kind == "partitioned":
        return SynopsisSpec(
            kind="partitioned",
            budget=budget,
            metric=metric,
            partition=PartitionSpec(shards=2),
        )
    return SynopsisSpec(kind=kind, budget=budget, metric=metric)


class TestBackendEquivalence:
    @pytest.mark.parametrize("kind", ["histogram", "wavelet", "partitioned"])
    @pytest.mark.parametrize("metric", ["sse", "sae", "mae"])
    @pytest.mark.parametrize("budget", [3, 6])
    def test_json_and_columnar_round_trip_identically(
        self, tmp_path, kind, metric, budget
    ):
        spec = spec_for(kind, metric, budget)
        built = SynopsisStore(tmp_path).get_or_build(MODEL, spec)
        from_json = synopsis_from_dict(synopsis_to_dict(built))

        fresh = SynopsisStore(tmp_path)
        from_pack = fresh.get_or_build(MODEL, spec)
        assert fresh.stats.builds == 0
        assert fresh.stats.disk_hits_by_backend == {"columnar": 1}
        assert_columns_bit_identical(built, from_pack)
        assert_same_answers(built, from_pack)
        assert_same_answers(from_json, from_pack)

    def test_codec_registry_covers_every_kind(self):
        # The pack is the store's only on-disk format: a kind without a
        # codec could be built but never stored.
        assert codec_kinds() == synopsis_kinds()


# ----------------------------------------------------------------------
# Corruption: every damage mode is a typed StoreCorruptionError
# ----------------------------------------------------------------------
@pytest.fixture
def packed(tmp_path):
    pack = SynopsisPack(tmp_path)
    pack.put("entry", Histogram.from_boundaries([(0, 7)], [2.5], 8), {"budget": 1})
    pack.close()
    return tmp_path


class TestCorruption:
    def test_truncated_pack(self, packed):
        pack_file = packed / SynopsisPack.PACK_NAME
        pack_file.write_bytes(pack_file.read_bytes()[:-40])
        with pytest.raises(StoreCorruptionError, match="truncated"):
            SynopsisPack(packed).get("entry")

    def test_pack_truncated_below_header(self, packed):
        (packed / SynopsisPack.PACK_NAME).write_bytes(b"\x01\x02")
        with pytest.raises(StoreCorruptionError, match="header"):
            SynopsisPack(packed)

    def test_bad_magic(self, packed):
        pack_file = packed / SynopsisPack.PACK_NAME
        raw = bytearray(pack_file.read_bytes())
        raw[:8] = b"NOTAPACK"
        pack_file.write_bytes(bytes(raw))
        with pytest.raises(StoreCorruptionError, match="magic"):
            SynopsisPack(packed)

    def test_unsupported_version(self, packed):
        index_file = packed / SynopsisPack.INDEX_NAME
        raw = bytearray(index_file.read_bytes())
        raw[: _HEADER.size] = _HEADER.pack(_INDEX_MAGIC, PACK_VERSION + 7, 0)
        index_file.write_bytes(bytes(raw))
        with pytest.raises(StoreCorruptionError, match="version"):
            SynopsisPack(packed)

    def test_checksum_mismatch_names_the_pack(self, packed):
        pack_file = packed / SynopsisPack.PACK_NAME
        raw = bytearray(pack_file.read_bytes())
        raw[_HEADER.size + 8] ^= 0xFF  # flip one payload byte
        pack_file.write_bytes(bytes(raw))
        with pytest.raises(StoreCorruptionError, match="checksum") as info:
            SynopsisPack(packed).get("entry")
        assert info.value.path == pack_file

    def test_torn_index_record(self, packed):
        index_file = packed / SynopsisPack.INDEX_NAME
        index_file.write_bytes(index_file.read_bytes()[:-13])
        with pytest.raises(StoreCorruptionError, match="torn"):
            SynopsisPack(packed)

    def test_missing_companion_file(self, packed):
        (packed / SynopsisPack.INDEX_NAME).unlink()
        with pytest.raises(StoreCorruptionError, match="companion"):
            SynopsisPack(packed)

    def test_malformed_meta_blob(self, tmp_path):
        pack = SynopsisPack(tmp_path)
        synopsis = Histogram.from_boundaries([(0, 3)], [1.0], 4)
        pack.put("entry", synopsis, {})
        entry = pack._entry(b"entry")
        pack_file = tmp_path / SynopsisPack.PACK_NAME
        raw = bytearray(pack_file.read_bytes())
        meta = bytearray(b"{" * entry["meta_length"])
        raw[entry["meta_offset"]: entry["meta_offset"] + entry["meta_length"]] = meta
        pack_file.write_bytes(bytes(raw))
        # Re-stamp the index record's CRC so only the JSON parse fails, not
        # the checksum: the crc32 field sits after the key (64) and the four
        # uint64 spans (32) of the 104-byte record, behind the 16-byte header.
        body = raw[entry["offset"]: entry["offset"] + entry["length"]]
        record_crc = zlib.crc32(bytes(body))
        index_file = tmp_path / SynopsisPack.INDEX_NAME
        index_raw = bytearray(index_file.read_bytes())
        index_raw[_HEADER.size + 96: _HEADER.size + 100] = record_crc.to_bytes(
            4, "little"
        )
        index_file.write_bytes(bytes(index_raw))
        with pytest.raises(StoreCorruptionError, match="meta blob"):
            SynopsisPack(tmp_path).get("entry")

    def test_describe_verify_reports_instead_of_raising(self, packed):
        pack_file = packed / SynopsisPack.PACK_NAME
        raw = bytearray(pack_file.read_bytes())
        raw[_HEADER.size + 8] ^= 0xFF
        pack_file.write_bytes(bytes(raw))
        (row,) = SynopsisPack(packed).describe(verify=True)
        assert row["crc_ok"] is False and "error" in row

    def test_importable_from_the_package_root(self):
        import repro

        assert repro.StoreCorruptionError is StoreCorruptionError

    def test_key_validation(self, tmp_path):
        pack = SynopsisPack(tmp_path)
        synopsis = Histogram.from_boundaries([(0, 3)], [1.0], 4)
        with pytest.raises(SynopsisError, match="1-64 ASCII"):
            pack.put("", synopsis)
        with pytest.raises(SynopsisError, match="1-64 ASCII"):
            pack.put("k" * 65, synopsis)
        with pytest.raises(UnicodeEncodeError):
            pack.put("clé", synopsis)


# ----------------------------------------------------------------------
# Serving behaviour: eviction, stats, retired formats, compaction
# ----------------------------------------------------------------------
SAE3 = SynopsisSpec(budget=3, metric="sae")


class TestStoreIntegration:
    def test_lru_eviction_degrades_to_columnar_disk_hit(self, tmp_path):
        store = SynopsisStore(tmp_path, format="columnar", max_memory_entries=1)
        first = store.get_or_build(MODEL, SAE3)
        store.get_or_build(MODEL, SAE3.with_budget(5))  # evicts the budget-3 entry
        assert store.stats.evictions == 1
        again = store.get_or_build(MODEL, SAE3)
        assert store.stats.builds == 2  # the eviction did NOT force a rebuild
        assert store.stats.disk_hits_by_backend == {"columnar": 1}
        assert store.stats.disk_load_seconds > 0.0
        assert_same_answers(first, again)

    def test_build_seconds_accrue(self, tmp_path):
        store = SynopsisStore(tmp_path)
        store.get_or_build(MODEL, SAE3)
        assert store.stats.builds == 1
        assert store.stats.build_seconds > 0.0
        snapshot = store.stats.as_dict()
        assert snapshot["disk_hits_by_backend"] == {}
        assert snapshot["build_seconds"] == store.stats.build_seconds

    def test_format_mismatch_is_rejected_up_front(self, tmp_path):
        # A retired JSON store: <key>.json entries and no pack.  Opening it
        # must fail loudly, not miss on every lookup and rebuild.
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        (legacy / f"{'0' * 64}.json").write_text("{}")
        with pytest.raises(SynopsisError, match="JSON store.*Migrating"):
            SynopsisStore(legacy)
        assert not SynopsisPack.present(legacy)
        for retired in ("json", "parquet"):
            with pytest.raises(SynopsisError, match="unknown store format"):
                SynopsisStore(tmp_path / "new", format=retired)
        # JSON files next to a pack (exported synopses, say) are not a store.
        SynopsisStore(tmp_path / "new").get_or_build(MODEL, SAE3)
        (tmp_path / "new" / "exported.json").write_text("{}")
        reopened = SynopsisStore(tmp_path / "new")
        reopened.get_or_build(MODEL, SAE3)
        assert reopened.stats.disk_hits == 1

    def test_migrated_json_entries_keep_hitting(self, tmp_path):
        # The README's migration recipe: the <key>.json entries of a retired
        # JSON store, put into a pack under their file stems, serve every
        # lookup of a fresh store without a rebuild.
        spec = SynopsisSpec(budget=(3, 5), metric="sae")
        built = SynopsisStore().get_or_build(MODEL, spec)
        legacy = tmp_path / "json"
        legacy.mkdir()
        fingerprint = fingerprint_data(MODEL)
        for budget, synopsis in zip(spec.budgets, built):
            key = spec.store_key(fingerprint, budget)
            payload = {
                "key": key,
                "config": spec.canonical(budget),
                "synopsis": synopsis_to_dict(synopsis),
            }
            (legacy / f"{key}.json").write_text(json.dumps(payload, indent=2))
        with pytest.raises(SynopsisError, match="Migrating"):
            SynopsisStore(legacy)

        store = SynopsisStore(tmp_path / "pack")
        for path in legacy.glob("*.json"):
            payload = json.loads(path.read_text())
            store.put(path.stem, synopsis_from_dict(payload["synopsis"]), payload["config"])
        fresh = SynopsisStore(tmp_path / "pack")
        served = fresh.get_or_build(MODEL, spec)
        assert fresh.stats.builds == 0 and fresh.stats.disk_hits == 2
        for original, loaded in zip(built, served):
            assert_same_answers(original, loaded)

    def test_get_and_put_are_the_disk_path(self, tmp_path, monkeypatch):
        # Tracers time the store's load and put stages by wrapping the
        # class's own get and put, so get_or_build must reach the pack
        # through them.
        calls = []
        real_get = vars(SynopsisStore)["get"]
        real_put = vars(SynopsisStore)["put"]

        def get(self, key):
            calls.append("get")
            return real_get(self, key)

        def put(self, key, synopsis, config=None):
            calls.append("put")
            return real_put(self, key, synopsis, config)

        monkeypatch.setattr(SynopsisStore, "get", get)
        monkeypatch.setattr(SynopsisStore, "put", put)
        SynopsisStore(tmp_path).get_or_build(MODEL, SAE3)
        assert calls == ["get", "put"]  # a miss looks up, then persists
        calls.clear()
        fresh = SynopsisStore(tmp_path)
        fresh.get_or_build(MODEL, SAE3)
        assert calls == ["get"] and fresh.stats.disk_hits == 1

    def test_contains_and_len_read_the_pack(self, tmp_path):
        SynopsisStore(tmp_path).get_or_build(MODEL, SAE3.with_budget((3, 5)))
        keys = SynopsisPack(tmp_path).keys()
        fresh = SynopsisStore(tmp_path)
        assert len(fresh) == 2 and all(key in fresh for key in keys)
        assert fresh.stats.disk_load_seconds == 0.0  # membership loads nothing
        assert fresh.get(keys[0]) is not None
        assert len(fresh) == 2  # in memory and on disk, counted once
        fresh.clear_disk()
        assert len(fresh) == 1
        assert keys[0] in fresh and keys[1] not in fresh

    def test_superseding_put_and_compaction(self, tmp_path):
        pack = SynopsisPack(tmp_path)
        big = Histogram.from_boundaries(
            [(i, i) for i in range(256)], [float(i) for i in range(256)], 256
        )
        small = Histogram.from_boundaries([(0, 255)], [7.0], 256)
        pack.put("k", big, {"budget": 256})
        pack.put("k", small, {"budget": 1})
        assert len(pack) == 1 and pack.dead_records == 1
        loaded, config = pack.get("k")
        assert loaded.bucket_count == 1 and config == {"budget": 1}
        reclaimed = pack.compact()
        assert reclaimed > 0 and pack.dead_records == 0
        again, _ = pack.get("k")
        assert_columns_bit_identical(small, again)

    def test_clear_disk_truncates_the_pack(self, tmp_path):
        store = SynopsisStore(tmp_path)
        store.get_or_build(MODEL, SAE3)
        pack_file = tmp_path / SynopsisPack.PACK_NAME
        assert pack_file.stat().st_size > _HEADER.size
        store.clear_disk()
        assert pack_file.stat().st_size == _HEADER.size
        store.clear_memory()
        rebuilt_store = SynopsisStore(tmp_path)
        rebuilt_store.get_or_build(MODEL, SAE3)
        assert rebuilt_store.stats.builds == 1  # the entry really was dropped

    def test_pack_magic_constants(self, tmp_path):
        SynopsisPack(tmp_path)
        assert (tmp_path / SynopsisPack.PACK_NAME).read_bytes()[:8] == _PACK_MAGIC
        assert (tmp_path / SynopsisPack.INDEX_NAME).read_bytes()[:8] == _INDEX_MAGIC


# ----------------------------------------------------------------------
# Fingerprint memoisation
# ----------------------------------------------------------------------
class TestFingerprintMemo:
    def test_repeat_fingerprints_skip_hashing(self, monkeypatch):
        import repro.service.store as store_module

        model = zipf_value_pdf(32, skew=1.1, uncertainty=0.3, seed=77)
        calls = []
        real = store_module.model_to_dict

        def spy(data):
            calls.append(id(data))
            return real(data)

        monkeypatch.setattr(store_module, "model_to_dict", spy)
        first = fingerprint_data(model)
        second = fingerprint_data(model)
        assert first == second
        assert len(calls) == 1  # the second call was a memo hit

    def test_fingerprint_pass_through_skips_hashing_entirely(self, monkeypatch):
        import repro.service.store as store_module

        model = zipf_value_pdf(32, skew=1.1, uncertainty=0.3, seed=78)
        digest = fingerprint_data(model)
        monkeypatch.setattr(
            store_module,
            "fingerprint_data",
            lambda data: pytest.fail("fingerprint= should bypass hashing"),
        )
        store = SynopsisStore()
        built = store.get_or_build(model, SAE3, fingerprint=digest)
        again = store.get_or_build(model, SAE3, fingerprint=digest)
        assert again is built
        assert store.stats.builds == 1 and store.stats.memory_hits == 1

    def test_distributions_are_memoised(self, monkeypatch):
        model = zipf_value_pdf(24, skew=1.1, uncertainty=0.3, seed=79)
        distributions = model.to_frequency_distributions()
        assert fingerprint_data(distributions) == fingerprint_data(distributions)

    def test_plain_lists_still_fingerprint(self):
        # Lists are not weak-referenceable: uncached, but still correct.
        assert fingerprint_data([1.0, 2.0]) == fingerprint_data([1.0, 2.0])
        assert fingerprint_data([1.0, 2.0]) != fingerprint_data([2.0, 1.0])
