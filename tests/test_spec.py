"""Spec-layer tests: golden store keys, round-trips, validation, kind table.

The golden-key matrix pins the exact SHA-256 store keys the pre-spec release
derived for a representative grid of build configurations.  Any refactor of
:class:`SynopsisSpec.canonical` / :meth:`SynopsisSpec.store_key` (or of the
store's keying) that silently invalidates on-disk caches fails here first —
the digests below were captured from the store's hand-rolled keyword
keying that the spec replaced (since deleted).
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Histogram,
    PartitionedSynopsis,
    SynopsisSpec,
    WaveletSynopsis,
    build,
)
from repro.core.metrics import ErrorMetric, MetricSpec
from repro.core.synopsis import Synopsis, synopsis_class, synopsis_kinds
from repro.core.workload import QueryWorkload
from repro.exceptions import BudgetClampWarning, SynopsisError
from repro.io.binary_format import SynopsisPack
from repro.models.frequency import FrequencyDistributions
from repro.models.values import ValueGrid
from repro.service import SynopsisStore, fingerprint_data

# ----------------------------------------------------------------------
# Golden store keys (captured from the pre-spec implementation)
# ----------------------------------------------------------------------
_FP = "f" * 64
_FP_VEC = "799eb99a60dd83c57bfe43c1eb5b9e5334fab0ebc120369dee40028729c0004c"
_FP_DISTS = "32ca2e4769da14bab7233c29d27201353ca09e952eef964eaf51a26dd9a79c72"
_DISTS_GRID = [0.0, 1.0, 2.0, 5.0]
_DISTS_PROBS = [[0.5, 0.25, 0.25, 0.0], [0.0, 1.0, 0.0, 0.0], [0.125, 0.125, 0.25, 0.5]]
_WORKLOAD = np.linspace(0.5, 2.0, 16)

# (name, fingerprint, workload, build kwargs, expected canonical config, key)
GOLDEN_KEYS = [
    ("hist-sse-default", _FP, None,
     dict(synopsis="histogram", budget=8),
     {"synopsis": "histogram", "budget": 8, "metric": "sse",
      "method": "optimal", "kernel": "auto", "sse_variant": "fixed"},
     "2a38cdd555190d3a45e237360ee10409e6c6c6fdcd1bad1e14346f5869b39df1"),
    ("hist-sse-paper-variant", _FP, None,
     dict(synopsis="histogram", budget=8, sse_variant="paper"),
     {"synopsis": "histogram", "budget": 8, "metric": "sse",
      "method": "optimal", "kernel": "auto", "sse_variant": "paper"},
     "9415525304d715b9c36f2ea1c6fa5411e18a3389c6aca97041f9796669e5545a"),
    ("hist-sse-kernel-exact", _FP, None,
     dict(synopsis="histogram", budget=8, kernel="exact"),
     {"synopsis": "histogram", "budget": 8, "metric": "sse",
      "method": "optimal", "kernel": "exact", "sse_variant": "fixed"},
     "11a565ecff6f79695e9edf39b80a13a5895d43b9d7dbb89a0852b53d39ac9029"),
    ("hist-sse-kernel-dc", _FP, None,
     dict(synopsis="histogram", budget=4, kernel="divide_conquer"),
     {"synopsis": "histogram", "budget": 4, "metric": "sse",
      "method": "optimal", "kernel": "divide_conquer", "sse_variant": "fixed"},
     "8725e4a057d714fdfb35e31f271244906e4aab33e27f8095d2ebb2634bbe46c2"),
    ("hist-ssre-c05", _FP, None,
     dict(synopsis="histogram", budget=8, metric="ssre", sanity=0.5),
     {"synopsis": "histogram", "budget": 8, "metric": "ssre", "sanity": 0.5,
      "method": "optimal", "kernel": "auto"},
     "9adbde6f2b9637c6a0ba43170a6f0eb13d7d76eb18f304ea5738a4160279f37f"),
    ("hist-ssre-default-c", _FP, None,
     dict(synopsis="histogram", budget=8, metric="ssre"),
     {"synopsis": "histogram", "budget": 8, "metric": "ssre", "sanity": 1.0,
      "method": "optimal", "kernel": "auto"},
     "9d56020511d4241a0795267ec544f07a93ded0073736cbe37b4dff0b8f8579ea"),
    ("hist-sae", _FP, None,
     dict(synopsis="histogram", budget=12, metric="sae"),
     {"synopsis": "histogram", "budget": 12, "metric": "sae",
      "method": "optimal", "kernel": "auto"},
     "84f27015e0194136db037df7618e2b3751882bb9e6063500420d404da2213ee6"),
    ("hist-sare-c2", _FP, None,
     dict(synopsis="histogram", budget=12, metric="sare", sanity=2.0),
     {"synopsis": "histogram", "budget": 12, "metric": "sare", "sanity": 2.0,
      "method": "optimal", "kernel": "auto"},
     "b0a0bbf76fae2d6af215442137a42165254cd02f7b120fee55a2e8fe3e920085"),
    ("hist-mae", _FP, None,
     dict(synopsis="histogram", budget=6, metric="mae"),
     {"synopsis": "histogram", "budget": 6, "metric": "mae",
      "method": "optimal", "kernel": "auto"},
     "3ffd9d3c037ff5133b9e3814613c9d2961b9b6c191c983a2ad151baa2e77c544"),
    ("hist-mare", _FP, None,
     dict(synopsis="histogram", budget=6, metric="mare", sanity=1.5),
     {"synopsis": "histogram", "budget": 6, "metric": "mare", "sanity": 1.5,
      "method": "optimal", "kernel": "auto"},
     "5de1de75b44a97406749ae2bc3608a412f3222ad0a86717cf90db356b28e4f21"),
    ("hist-approx-eps01", _FP, None,
     dict(synopsis="histogram", budget=8, method="approximate", epsilon=0.1),
     {"synopsis": "histogram", "budget": 8, "metric": "sse",
      "method": "approximate", "epsilon": 0.1, "sse_variant": "fixed"},
     "b31e54006548d5d053b127ba8f7a6526e6cc60d5385c5dfbca6814da237f773f"),
    ("hist-approx-eps025", _FP, None,
     dict(synopsis="histogram", budget=8, method="approximate", epsilon=0.25),
     {"synopsis": "histogram", "budget": 8, "metric": "sse",
      "method": "approximate", "epsilon": 0.25, "sse_variant": "fixed"},
     "1108d5a1374c393321be57803172908af643d5e5048af79344e46e20e6dc2893"),
    ("wave-sse", _FP, None,
     dict(synopsis="wavelet", budget=8),
     {"synopsis": "wavelet", "budget": 8, "metric": "sse"},
     "fbde5ff0d8ae99120b7d87bd7e391da5faee4dcd50e2272722bb127b38870c37"),
    ("wave-sae", _FP, None,
     dict(synopsis="wavelet", budget=8, metric="sae"),
     {"synopsis": "wavelet", "budget": 8, "metric": "sae"},
     "9dbf8ece3818ee657c4f81db2251cefdf14be60710e03a1225a4b16dbfcba7b0"),
    ("wave-mare-c05", _FP, None,
     dict(synopsis="wavelet", budget=5, metric="mare", sanity=0.5),
     {"synopsis": "wavelet", "budget": 5, "metric": "mare", "sanity": 0.5},
     "03ca1824aadade2b44bacd1827554d780ba18a0855b8cd684908c5553fb218ba"),
    ("hist-sse-real-fp", _FP_VEC, None,
     dict(synopsis="histogram", budget=8),
     {"synopsis": "histogram", "budget": 8, "metric": "sse",
      "method": "optimal", "kernel": "auto", "sse_variant": "fixed"},
     "d4ea73c28fac2523fabf468c2b7e5c01fcc40f91de8083e82468553e27eb24e4"),
    ("hist-sse-workload", _FP, _WORKLOAD,
     dict(synopsis="histogram", budget=8),
     {"synopsis": "histogram", "budget": 8, "metric": "sse",
      "method": "optimal", "kernel": "auto", "sse_variant": "fixed"},
     "e2c79ed8f56795d6bc6157425303097d023d36826c40d8eec563a1d5e53ef32b"),
    ("wave-sae-workload", _FP, _WORKLOAD,
     dict(synopsis="wavelet", budget=8, metric="sae"),
     {"synopsis": "wavelet", "budget": 8, "metric": "sae"},
     "a5a717b54b0ad32b682fa7e622526dccf2c8ab2ce7b07e557c1ccf0660c88955"),
]

_GOLDEN_IDS = [case[0] for case in GOLDEN_KEYS]


def _spec_of(kwargs, workload) -> SynopsisSpec:
    kwargs = dict(kwargs)
    kind = kwargs.pop("synopsis")
    budget = kwargs.pop("budget")
    return SynopsisSpec(kind=kind, budget=budget, workload=workload, **kwargs)


class TestGoldenStoreKeys:
    """On-disk cache keys must survive the spec refactor byte-for-byte."""

    @pytest.mark.parametrize(
        "name,fingerprint,workload,kwargs,config,key", GOLDEN_KEYS, ids=_GOLDEN_IDS
    )
    def test_spec_store_key_matches_golden(
        self, name, fingerprint, workload, kwargs, config, key
    ):
        spec = _spec_of(kwargs, workload)
        assert spec.canonical() == config
        assert spec.store_key(fingerprint) == key

    @pytest.mark.parametrize(
        "name,fingerprint,workload,kwargs,config,key", GOLDEN_KEYS, ids=_GOLDEN_IDS
    )
    def test_store_files_build_under_golden_key(
        self, tmp_path, name, fingerprint, workload, kwargs, config, key
    ):
        # The store keys each budget through its own per-budget path; a
        # build must land on disk under the golden key with the golden
        # config.  The real-fingerprint case lets the store hash the
        # dataset itself.
        data = np.arange(16, dtype=float)
        store = SynopsisStore(tmp_path)
        built = store.get_or_build(
            data,
            _spec_of(kwargs, workload),
            fingerprint=None if fingerprint == _FP_VEC else fingerprint,
        )
        pack = SynopsisPack(tmp_path)
        assert pack.keys() == (key,)
        assert pack.get(key)[1] == config
        assert store.get(key) is built
        assert store.stats.builds == 1

    def test_fingerprint_pinned(self):
        # The dataset fingerprint feeds every key; pin one representative.
        assert fingerprint_data(np.arange(16, dtype=float)) == _FP_VEC

    def test_distributions_fingerprint_pinned(self):
        # Stores key precomputed marginals by this digest of the grid and
        # the C-ordered probability bytes, whatever the matrix's memory order.
        grid = ValueGrid(_DISTS_GRID)
        c_order = FrequencyDistributions(grid, np.array(_DISTS_PROBS))
        f_order = FrequencyDistributions(grid, np.asfortranarray(_DISTS_PROBS))
        assert not f_order.probabilities.flags.c_contiguous
        assert fingerprint_data(c_order) == _FP_DISTS
        assert fingerprint_data(f_order) == _FP_DISTS

    def test_sweep_budgets_key_like_singles(self):
        sweep = SynopsisSpec(kind="histogram", budget=(4, 8), metric="sse")
        single = SynopsisSpec(kind="histogram", budget=8, metric="sse")
        assert sweep.store_key(_FP, 8) == single.store_key(_FP)


class TestSpecRoundTrip:
    """SynopsisSpec <-> dict <-> JSON is exact, including workloads."""

    @st.composite
    def _specs(draw):
        metric = draw(st.sampled_from([m.value for m in ErrorMetric]))
        # The approximate scheme only exists for cumulative metrics, and the
        # spec enforces that at construction.
        method = draw(
            st.sampled_from(
                ["optimal"] if metric in ("mae", "mare") else ["optimal", "approximate"]
            )
        )
        return SynopsisSpec(
            kind=draw(st.sampled_from(["histogram", "wavelet"])),
            budget=draw(
                st.one_of(
                    st.integers(min_value=1, max_value=512),
                    st.lists(
                        st.integers(min_value=1, max_value=512), min_size=1, max_size=5
                    ).map(lambda entries: tuple(sorted(set(entries)))),
                )
            ),
            metric=metric,
            sanity=draw(st.floats(min_value=0.1, max_value=8.0, allow_nan=False)),
            method=method,
            kernel=draw(st.sampled_from(["auto", "exact", "vectorized", "divide_conquer"])),
            epsilon=draw(st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)),
            sse_variant=draw(st.sampled_from(["fixed", "paper"])),
            workload=draw(
                st.one_of(
                    st.none(),
                    st.lists(
                        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
                        min_size=1,
                        max_size=8,
                    ),
                )
            ),
        )

    specs = _specs()

    @settings(max_examples=200, deadline=None)
    @given(spec=specs)
    def test_dict_and_json_round_trip(self, spec):
        assert SynopsisSpec.from_dict(spec.to_dict()) == spec
        assert SynopsisSpec.from_json(spec.to_json()) == spec
        # to_dict must be JSON-clean without numpy leakage.
        assert json.loads(spec.to_json()) == json.loads(
            json.dumps(spec.to_dict(), sort_keys=True)
        )

    @settings(max_examples=200, deadline=None)
    @given(spec=specs)
    def test_round_trip_preserves_hash_and_keys(self, spec):
        clone = SynopsisSpec.from_json(spec.to_json())
        assert hash(clone) == hash(spec)
        assert [clone.store_key(_FP, b) for b in clone.budgets] == [
            spec.store_key(_FP, b) for b in spec.budgets
        ]

    def test_workload_survives_round_trip(self):
        spec = SynopsisSpec(budget=4, workload=QueryWorkload([1.0, 2.0, 3.0]))
        clone = SynopsisSpec.from_dict(spec.to_dict())
        assert clone.workload == spec.workload
        assert clone.workload_digest == spec.workload_digest

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SynopsisError, match="unknown spec field"):
            SynopsisSpec.from_dict({"budget": 4, "bucket_count": 4})

    def test_from_json_rejects_malformed_text(self):
        with pytest.raises(SynopsisError, match="invalid spec JSON"):
            SynopsisSpec.from_json("{not json")


class TestSpecValidation:
    """Malformed specs fail at construction, before any data is touched."""

    def test_empty_sweep_rejected(self):
        with pytest.raises(SynopsisError, match="empty budget sweep"):
            SynopsisSpec(budget=())

    @pytest.mark.parametrize("budget", [4.7, "4", True, [2, 3.5]])
    def test_non_integral_budgets_rejected(self, budget):
        with pytest.raises(SynopsisError):
            SynopsisSpec(budget=budget)

    def test_histogram_budget_must_be_positive(self):
        with pytest.raises(SynopsisError, match="at least 1"):
            SynopsisSpec(kind="histogram", budget=0)

    def test_wavelet_budget_zero_allowed(self):
        assert SynopsisSpec(kind="wavelet", budget=0).budgets == (0,)

    @pytest.mark.parametrize("epsilon", [0.0, -0.5, float("nan")])
    def test_epsilon_validated_up_front(self, epsilon):
        with pytest.raises(SynopsisError, match="epsilon"):
            SynopsisSpec(budget=4, method="approximate", epsilon=epsilon)

    @pytest.mark.parametrize("sanity", [0.0, -1.0])
    def test_sanity_validated_up_front(self, sanity):
        with pytest.raises(SynopsisError, match="sanity"):
            SynopsisSpec(budget=4, metric="sse", sanity=sanity)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SynopsisError, match="unknown synopsis kind"):
            SynopsisSpec(kind="sketch", budget=4)

    def test_unknown_method_rejected(self):
        with pytest.raises(SynopsisError, match="construction method"):
            SynopsisSpec(budget=4, method="greedy")

    @pytest.mark.parametrize("metric", ["mae", "mare"])
    def test_approximate_maximum_metric_rejected_up_front(self, metric):
        # Used to fail deep inside approximate_boundaries; the spec knows
        # cumulative-vs-maximum at construction time.
        with pytest.raises(SynopsisError, match="cumulative"):
            SynopsisSpec(budget=4, method="approximate", metric=metric)

    def test_wavelet_normalises_histogram_knobs(self):
        spec = SynopsisSpec(
            kind="wavelet", budget=4, method="approximate", kernel="exact",
            epsilon=0.7, sse_variant="paper",
        )
        assert spec == SynopsisSpec(kind="wavelet", budget=4)

    def test_metricspec_carries_its_own_sanity(self):
        spec = SynopsisSpec(budget=4, metric=MetricSpec.of("ssre", 0.25))
        assert spec.metric.sanity == 0.25

    def test_build_refuses_a_bare_budget_by_naming_the_spec(self):
        with pytest.raises(SynopsisError) as refused:
            build(np.arange(8, dtype=float), 8)
        message = str(refused.value)
        assert "SynopsisSpec(kind=..., budget=...)" in message
        assert re.search(r"\bbuild_\w+", message) is None  # names no other build function


class TestBudgetClampWarning:
    """Oversized budgets warn instead of clamping silently."""

    def test_histogram_sweep_clamp_warns(self):
        with pytest.warns(BudgetClampWarning, match="clamped"):
            built = build(np.arange(6, dtype=float), SynopsisSpec(budget=[2, 50]))
        assert built[1].bucket_count == 6

    def test_wavelet_budget_clamp_warns(self):
        with pytest.warns(BudgetClampWarning, match="coefficients"):
            build(np.arange(8, dtype=float), SynopsisSpec(kind="wavelet", budget=99))

    def test_fitting_budgets_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", BudgetClampWarning)
            build(np.arange(6, dtype=float), SynopsisSpec(budget=[1, 6]))


class TestSynopsisProtocol:
    """Kind routing goes through the fixed kind table, not isinstance chains."""

    def test_builtin_kinds_registered(self):
        assert synopsis_kinds() == ("histogram", "partitioned", "wavelet")
        assert synopsis_class("histogram") is Histogram
        assert synopsis_class("wavelet") is WaveletSynopsis
        assert synopsis_class("partitioned") is PartitionedSynopsis

    def test_unknown_kind_raises(self):
        with pytest.raises(SynopsisError, match="unknown synopsis kind"):
            synopsis_class("sketch")

    def test_value_objects_implement_protocol(self):
        histogram = build(np.arange(8.0), SynopsisSpec(budget=2))
        wavelet = build(np.arange(8.0), SynopsisSpec(kind="wavelet", budget=2))
        for synopsis in (histogram, wavelet):
            assert isinstance(synopsis, Synopsis)
            assert synopsis.kind == type(synopsis).kind
            assert synopsis.size == len(synopsis)
            assert synopsis.domain_size == 8

    def test_no_kind_isinstance_dispatch_in_service_or_io(self):
        # Acceptance criterion: engine and io must not branch on concrete
        # synopsis classes; everything routes through the protocol and kind table.
        from pathlib import Path

        import repro.io.text_format as io_mod
        import repro.service.engine as engine_mod

        for module in (engine_mod, io_mod):
            source = Path(module.__file__).read_text()
            assert "isinstance(synopsis, Histogram" not in source
            assert "isinstance(synopsis, WaveletSynopsis" not in source
            assert "isinstance(synopsis, (Histogram" not in source


class TestStoreSpecFrontDoor:
    """get_or_build takes a spec, including budget sweeps with partial hits."""

    def test_sweep_builds_once_and_hits_after(self):
        data = np.arange(32, dtype=float)
        store = SynopsisStore()
        sweep = SynopsisSpec(budget=(2, 4, 8), metric="sse")
        built = store.get_or_build(data, sweep)
        assert [h.bucket_count for h in built] == [2, 4, 8]
        assert store.stats.builds == 1
        # A single-budget lookup afterwards is a pure hit.
        again = store.get_or_build(data, sweep.with_budget(4))
        assert again is built[1]
        assert store.stats.builds == 1

    def test_partial_sweep_reuses_cached_budgets(self):
        data = np.arange(32, dtype=float)
        store = SynopsisStore()
        cached = store.get_or_build(data, SynopsisSpec(budget=4))
        results = store.get_or_build(data, SynopsisSpec(budget=(2, 4)))
        assert store.stats.memory_hits == 1
        assert [h.bucket_count for h in results] == [2, 4]
        # The cached budget is served as-is, not rebuilt and replaced.
        assert results[1] is cached

    def test_workload_must_live_in_the_spec(self):
        # The workload= keyword went with the keyword form: the spec is the
        # only carrier of a workload, and a stray keyword is refused before
        # any lookup or build.
        data = np.arange(8.0)
        store = SynopsisStore()
        spec = SynopsisSpec(budget=2)
        with pytest.raises(TypeError, match="workload"):
            store.get_or_build(data, spec, workload=np.ones(8))
        assert store.stats.lookups == 0 and len(store) == 0
        weighted = SynopsisSpec(budget=2, workload=np.arange(1.0, 9.0))
        assert store.get_or_build(data, weighted) is not store.get_or_build(data, spec)
        assert store.stats.builds == 2

    def test_spec_rejects_conflicting_keyword_arguments(self):
        # Nothing can contradict the spec any more: the old spellings that
        # could (a budget next to spec=, a metric next to a spec) fail at the
        # call, before any lookup, instead of one side silently winning.
        store = SynopsisStore()
        spec = SynopsisSpec(budget=4)
        with pytest.raises(TypeError, match="spec"):
            store.get_or_build(np.arange(8.0), 8, spec=spec)
        with pytest.raises(TypeError, match="metric"):
            store.get_or_build(np.arange(8.0), spec, metric="sae")
        assert store.stats.lookups == 0 and len(store) == 0

    def test_a_bare_budget_is_refused(self):
        # The keyword form (get_or_build(data, 4, metric=...)) is gone; a
        # leftover caller gets a typed error naming the spec, not an
        # AttributeError from deep inside the lookup.
        with pytest.raises(SynopsisError, match="takes a SynopsisSpec"):
            SynopsisStore().get_or_build(np.arange(8.0), 4)
