"""The fixed table of interchangeable DP kernels.

The five kernels are listed under a short name each (``"exact"``,
``"vectorized"``, ``"divide_conquer"``, ``"compiled_vectorized"``,
``"compiled_divide_conquer"``); callers request one by name or pass
``"auto"`` to pick the fastest kernel that solves the given oracle exactly:

* cumulative metrics with monotone split points → the compiled divide and
  conquer when the compiled backend (the C library) is available and
  the oracle exposes flat prefix arrays, else the numpy ``divide_conquer``
  (both ``O(B n log n)``);
* everything else → the compiled dense recurrence while its latency cap
  holds, else ``vectorized`` while the dense cost matrix fits
  (``O(B n^2)`` with no Python inner loops);
* otherwise → ``exact`` (the reference row sweep, works for any oracle at
  any size).

Requesting a named kernel that cannot solve the oracle exactly (e.g.
``divide_conquer`` with a maximum-error objective, or a ``compiled_*``
kernel with no compiled backend installed) falls back the same way — the
paper's constructions guarantee optimality, so an unsuitable kernel choice
must never change the result, only the speed — and emits a
:class:`~repro.exceptions.KernelFallbackWarning` naming both the requested
and the resolved kernel, so the substitution is loud instead of silent.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ...exceptions import KernelFallbackWarning, SynopsisError, warn_at_caller
from ..cost_base import BucketCostFunction
from .base import DPKernel
from .compiled import CompiledDivideConquerKernel, CompiledVectorizedKernel
from .divide_conquer import DivideConquerKernel
from .exact import ExactKernel
from .vectorized import VectorizedKernel

__all__ = ["get_kernel", "resolve_kernel", "available_kernels", "AUTO_KERNEL"]

#: Name accepted everywhere a kernel can be chosen; resolves per-oracle.
AUTO_KERNEL = "auto"

#: Every kernel by name, in the order :func:`available_kernels` lists them.
_REGISTRY: Dict[str, DPKernel] = {
    kernel.name: kernel
    for kernel in (
        ExactKernel(),
        VectorizedKernel(),
        DivideConquerKernel(),
        CompiledVectorizedKernel(),
        CompiledDivideConquerKernel(),
    )
}

#: Fallback preference order used by ``auto`` and unsupported named requests.
_AUTO_ORDER = (
    "compiled_divide_conquer",
    "divide_conquer",
    "compiled_vectorized",
    "vectorized",
    "exact",
)


def available_kernels() -> Tuple[str, ...]:
    """Names of all kernels *usable right now*, in table order.

    Compiled kernels drop out when no compiled backend is available, so the
    listing always reflects what a request can actually run.
    """
    return tuple(name for name, kernel in _REGISTRY.items() if kernel.available())


def get_kernel(name: str) -> DPKernel:
    """The kernel called ``name`` (no suitability check)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        valid = ", ".join([AUTO_KERNEL, *_REGISTRY])
        raise SynopsisError(f"unknown DP kernel {name!r}; expected one of: {valid}") from None


def _first_suitable(cost_fn: BucketCostFunction) -> DPKernel:
    for fallback in _AUTO_ORDER:
        kernel = _REGISTRY[fallback]
        if kernel.available() and kernel.supports(cost_fn):
            return kernel
    return _REGISTRY["exact"]


def resolve_kernel(name: str, cost_fn: BucketCostFunction) -> DPKernel:
    """The kernel to run for ``cost_fn``: by name, with automatic fallback.

    ``"auto"`` (or ``None``) picks the fastest suitable kernel; an explicit
    name is honoured when the kernel supports the oracle and otherwise falls
    back along the same preference order — warning with
    :class:`~repro.exceptions.KernelFallbackWarning` — so the returned
    kernel always solves the DP exactly.
    """
    if name not in (None, AUTO_KERNEL):
        kernel = get_kernel(name)
        if kernel.available() and kernel.supports(cost_fn):
            return kernel
        resolved = _first_suitable(cost_fn)
        reason = "is not available in this environment" if not kernel.available() else (
            "cannot solve this oracle exactly"
        )
        warn_at_caller(
            KernelFallbackWarning(
                f"kernel {name!r} {reason}; resolved to {resolved.name!r} "
                "(the optimum is unchanged, only the speed)"
            )
        )
        return resolved
    return _first_suitable(cost_fn)
