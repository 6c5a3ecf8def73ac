"""Compiled-backend resolution: the C library, when a compiler builds it.

The rest of the package never imports a concrete backend module; it asks
:func:`get_backend` for the process-wide :class:`CompiledBackend` (or
``None`` when nothing compiled is available) and calls its three entry
points: the two histogram DPs and the SAE/SARE span costs.  Both backends
share one calling convention — the signatures of
:mod:`repro._compiled.kernels_py` — so callers are backend-agnostic.

Resolution order and the ``REPRO_COMPILED_BACKEND`` override:

* ``auto`` (default): ``cc``; quietly ``None`` when it does not import
  (absence is a supported configuration, not an error — the numpy kernels
  remain the unconditional fallback).
* ``cc``: force the C library, ``None`` if unavailable.
* ``python``: the interpreted kernel source itself — far too slow for
  production (the registry would rather fall back to numpy), but it lets
  tests run the compiled backend's entry points as interpreted Python.
* ``none``: disable compiled kernels entirely (CI uses this to keep the
  pure-numpy resolution path green).

The resolved backend is cached; :func:`reset_backend` clears the cache so
tests can re-resolve under a monkeypatched environment.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["CompiledBackend", "get_backend", "reset_backend"]

#: Environment variable overriding backend resolution.
BACKEND_ENV = "REPRO_COMPILED_BACKEND"

_MODULES = {
    "cc": "repro._compiled.cc_backend",
    "python": "repro._compiled.kernels_py",
}

#: Backends ``auto`` is allowed to pick, best first.  ``python`` is absent
#: on purpose: interpreted loops lose to the numpy kernels.
_AUTO_ORDER = ("cc",)


@dataclass(frozen=True)
class CompiledBackend:
    """One resolved compiled backend: a name plus its three entry points."""

    name: str
    dp_divide_conquer: Callable
    dp_dense: Callable
    absolute_span_costs: Callable
    version: str


_RESOLVED: "list[Optional[CompiledBackend]] | None" = None


def _load(name: str) -> Optional[CompiledBackend]:
    try:
        module = importlib.import_module(_MODULES[name])
    except ImportError:
        return None
    return CompiledBackend(
        name=name,
        dp_divide_conquer=module.dp_divide_conquer,
        dp_dense=module.dp_dense,
        absolute_span_costs=module.absolute_span_costs,
        version=getattr(module, "version", "interpreted"),
    )


def get_backend() -> Optional[CompiledBackend]:
    """The process-wide compiled backend, or ``None`` when unavailable."""
    global _RESOLVED
    if _RESOLVED is not None:
        return _RESOLVED[0]
    requested = os.environ.get(BACKEND_ENV, "auto").strip().lower() or "auto"
    if requested == "none":
        backend: Optional[CompiledBackend] = None
    elif requested in _MODULES:
        backend = _load(requested)
    else:
        backend = None
        for name in _AUTO_ORDER:
            backend = _load(name)
            if backend is not None:
                break
    _RESOLVED = [backend]
    return backend


def reset_backend() -> None:
    """Forget the resolved backend so the next call re-resolves (tests)."""
    global _RESOLVED
    _RESOLVED = None
