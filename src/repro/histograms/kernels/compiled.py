"""Compiled DP kernels: the registry face of :mod:`repro._compiled`.

Two kernels run the histogram DP entirely inside compiled code (the
on-demand-built C library), with no Python callbacks in the hot loop.
Both require the oracle to expose the flat quadratic-prefix state of
:meth:`~repro.histograms.cost_base.BucketCostFunction.to_compiled_arrays`
— that contract reproduces ``costs_for_spans`` bit-for-bit, so the
compiled kernels inherit the registry's bit-identical-optimum guarantees
(and its test matrix) unchanged:

* :class:`CompiledDivideConquerKernel` (``compiled_divide_conquer``) — the
  monotone split-point divide and conquer, ``O(B n log n)``.  This is the
  kernel that lifts exact SSE builds to ``n = 10^6`` in seconds.
* :class:`CompiledVectorizedKernel` (``compiled_vectorized``) — the dense
  min-plus row recurrence with every span cost recomputed on the fly, so
  the ``O(n^2)`` cost matrix of the numpy ``vectorized`` kernel is never
  materialised.  Unconditional (no monotonicity needed); capped by compute
  time rather than memory, which raises the dense ceiling 16x.

When no compiled backend is available (any system C compiler provides
the library) the kernels report themselves unavailable and the registry
resolves to the numpy kernels — loudly, via ``KernelFallbackWarning``, when one of these
names was requested explicitly.
"""

from __future__ import annotations

import numpy as np

from ..._compiled import get_backend
from ...exceptions import SynopsisError
from ..cost_base import BucketCostFunction
from .base import DPKernel, DynamicProgramResult

__all__ = [
    "CompiledDivideConquerKernel",
    "CompiledVectorizedKernel",
    "MAX_COMPILED_DENSE_CELLS",
]

#: Largest ``n^2`` the compiled dense kernel accepts.  Unlike the numpy
#: ``vectorized`` kernel's cap this is a *latency* guardrail, not a memory
#: one (nothing quadratic is allocated): at the cap (n = 16384) a full
#: budget sweep is ~10^10 span evaluations, the edge of interactive on one
#: core.  16x more domain than the dense numpy kernel can touch.
MAX_COMPILED_DENSE_CELLS = 1 << 28


class _CompiledKernel(DPKernel):
    """Shared solve plumbing: flatten the oracle, run the backend, wrap."""

    def available(self) -> bool:
        return get_backend() is not None

    def _solve_with(self, backend_fn_name: str, cost_fn: BucketCostFunction,
                    max_buckets: int) -> DynamicProgramResult:
        n, max_buckets, _ = self._validate(cost_fn, max_buckets)
        backend = get_backend()
        if backend is None:
            raise SynopsisError(
                f"the {self.name!r} kernel needs the compiled backend (a C "
                "compiler on the PATH); use a numpy kernel without one"
            )
        arrays = cost_fn.to_compiled_arrays()
        if arrays is None or cost_fn.aggregation != "sum":
            raise SynopsisError(
                f"the {self.name!r} kernel requires a cumulative oracle with "
                "quadratic-prefix compiled arrays; use a numpy kernel"
            )
        pa, pb, pc = (np.ascontiguousarray(a, dtype=np.float64) for a in arrays)
        if pa.shape != (n + 1,) or pb.shape != (n + 1,) or pc.shape != (n + 1,):
            raise SynopsisError(
                f"to_compiled_arrays() must return three length-{n + 1} prefix arrays"
            )
        errors = np.empty((max_buckets, n), dtype=np.float64)
        parents = np.empty((max_buckets, n), dtype=np.int64)
        getattr(backend, backend_fn_name)(pa, pb, pc, errors, parents)
        return DynamicProgramResult(cost_fn, errors, parents)


class CompiledDivideConquerKernel(_CompiledKernel):
    """Compiled monotone divide and conquer over flat prefix arrays."""

    name = "compiled_divide_conquer"

    def supports(self, cost_fn: BucketCostFunction) -> bool:
        return (
            self.available()
            and cost_fn.aggregation == "sum"
            and cost_fn.supports_monotone_splits
            and cost_fn.to_compiled_arrays() is not None
        )

    def solve(self, cost_fn: BucketCostFunction, max_buckets: int) -> DynamicProgramResult:
        if not (cost_fn.aggregation == "sum" and cost_fn.supports_monotone_splits):
            raise SynopsisError(
                "the compiled divide-and-conquer kernel requires a cumulative "
                "objective with certified monotone split points"
            )
        return self._solve_with("dp_divide_conquer", cost_fn, max_buckets)


class CompiledVectorizedKernel(_CompiledKernel):
    """Compiled dense min-plus recurrence, no cost matrix materialised."""

    name = "compiled_vectorized"

    def supports(self, cost_fn: BucketCostFunction) -> bool:
        n = cost_fn.domain_size
        return (
            self.available()
            and cost_fn.aggregation == "sum"
            and n * n <= MAX_COMPILED_DENSE_CELLS
            and cost_fn.to_compiled_arrays() is not None
        )

    def solve(self, cost_fn: BucketCostFunction, max_buckets: int) -> DynamicProgramResult:
        n = cost_fn.domain_size
        if n * n > MAX_COMPILED_DENSE_CELLS:
            raise SynopsisError(
                f"domain size {n} exceeds the compiled dense kernel's latency cap; "
                "use the 'compiled_divide_conquer' or 'exact' kernel instead"
            )
        return self._solve_with("dp_dense", cost_fn, max_buckets)
