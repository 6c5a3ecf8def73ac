"""Library warnings point at the caller's line, not into the package.

Every warning the package raises about a request (a kernel fallback, a
clamped budget, a normalised budget sweep) is attributed to the first frame
outside ``repro`` and ``dataclasses``, also when a partitioned build raises
it on a pool thread.  So the report names the line to fix, and Python's
once-per-location filter keeps one record per call site instead of folding
every call site into one library line.
"""

import warnings

import numpy as np
import pytest

from repro import PartitionSpec, SynopsisSpec, build
from repro.exceptions import (
    BudgetClampWarning,
    BudgetSweepWarning,
    KernelFallbackWarning,
    held_warnings,
    warn_at_caller,
)
from repro.service import SynopsisStore

DATA = np.array([5.0, 1.0, 4.0, 2.0, 8.0, 3.0, 7.0, 6.0])
#: The divide-and-conquer kernel cannot solve a maximum-error objective.
FALLBACK = SynopsisSpec(budget=3, metric="mae", kernel="divide_conquer")
#: Eight items hold at most eight buckets.
OVERSIZED = SynopsisSpec(budget=20)

PATHS = {
    "kernel-fallback-build": (KernelFallbackWarning, lambda: build(DATA, FALLBACK)),
    "kernel-fallback-store": (
        KernelFallbackWarning,
        lambda: SynopsisStore().get_or_build(DATA, FALLBACK),
    ),
    "budget-clamp-build": (BudgetClampWarning, lambda: build(DATA, OVERSIZED)),
    "budget-clamp-store": (
        BudgetClampWarning,
        lambda: SynopsisStore().get_or_build(DATA, OVERSIZED),
    ),
    "budget-sweep-with-budget": (
        BudgetSweepWarning,
        lambda: SynopsisSpec(budget=2).with_budget((5, 3)),
    ),
}


class TestWarningsPointAtTheCaller:
    @pytest.mark.parametrize("path", list(PATHS))
    def test_warning_lands_on_the_calling_line(self, path):
        category, call = PATHS[path]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        records = [w for w in caught if issubclass(w.category, category)]
        assert len(records) == 1
        assert records[0].filename == __file__

    def test_shard_builds_warn_at_the_calling_line(self):
        spec = SynopsisSpec(
            kind="partitioned",
            budget=4,
            metric="mae",
            kernel="divide_conquer",
            partition=PartitionSpec(shards=2),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build(DATA, spec)
        records = [w for w in caught if issubclass(w.category, KernelFallbackWarning)]
        assert len(records) == 2  # one per shard sweep
        assert {w.filename for w in records} == {__file__}

    def test_held_warnings_are_collected_then_raised_at_the_caller(self):
        first, second = KernelFallbackWarning("first"), BudgetClampWarning("second")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with held_warnings() as held:
                warn_at_caller(first)
                warn_at_caller(second)
            assert caught == []  # held, not raised
            assert held == [first, second]
            for warning in held:
                warn_at_caller(warning)
        assert [w.message for w in caught] == [first, second]
        assert {w.filename for w in caught} == {__file__}

    def test_two_call_sites_give_two_records(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for _ in range(2):
                build(DATA, FALLBACK)  # one call site, reached twice
            build(DATA, FALLBACK)  # a second call site
        records = [w for w in caught if issubclass(w.category, KernelFallbackWarning)]
        assert len(records) == 2
        assert {w.filename for w in records} == {__file__}
        assert len({w.lineno for w in records}) == 2
