"""Pluggable DP kernels for histogram construction (the synopsis engine).

The bucket-boundary dynamic program of Eq. 2 is solved by one of several
interchangeable *kernels*, all driving the bucket-cost oracle through the
batch ``costs_for_spans`` contract and all returning the same
:class:`DynamicProgramResult`:

==========================  =====================  ==============================
kernel                      complexity             applies to
==========================  =====================  ==============================
``exact``                   ``O(B n^2)``           every metric (reference)
``vectorized``              ``O(B n^2)``           every metric, ``n^2`` memory
``divide_conquer``          ``O(B n log n)``       cumulative metrics (SSE, SSRE,
                                                   SAE, SARE) whose oracle
                                                   certifies monotone split
                                                   points (ordered inputs)
``compiled_vectorized``     ``O(B n^2)``           cumulative quadratic-prefix
                                                   oracles (SSE, SSRE); needs a
                                                   compiled backend; no ``n^2``
                                                   memory
``compiled_divide_conquer``  ``O(B n log n)``      as ``divide_conquer`` over
                                                   quadratic-prefix oracles;
                                                   needs a compiled backend
==========================  =====================  ==============================

``resolve_kernel("auto", cost_fn)`` picks the fastest suitable kernel;
requesting an unsuitable (or unavailable) kernel by name falls back
automatically with a :class:`~repro.exceptions.KernelFallbackWarning` (e.g.
``divide_conquer`` on a maximum-error objective runs the exact kernel), so
kernel choice can never change the optimum — only the wall clock.
"""

from .base import DPKernel, DynamicProgramResult, combine, seed_first_row
from .compiled import CompiledDivideConquerKernel, CompiledVectorizedKernel
from .divide_conquer import DivideConquerKernel
from .exact import ExactKernel
from .registry import (
    AUTO_KERNEL,
    available_kernels,
    get_kernel,
    resolve_kernel,
)
from .vectorized import VectorizedKernel

__all__ = [
    "DPKernel",
    "DynamicProgramResult",
    "ExactKernel",
    "VectorizedKernel",
    "DivideConquerKernel",
    "CompiledVectorizedKernel",
    "CompiledDivideConquerKernel",
    "AUTO_KERNEL",
    "get_kernel",
    "resolve_kernel",
    "available_kernels",
    "combine",
    "seed_first_row",
]
