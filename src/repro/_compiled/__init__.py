"""Compiled (C) implementations of the package's hot loops.

The histogram DP kernels and the SAE/SARE pooled-median span costs are
exact algorithms whose cost is dominated by scalar inner loops; this
subpackage provides compiled implementations of all of them behind a
single resolver:

* :mod:`~repro._compiled.kernels_py` — the pure-Python algorithmic source
  that ``ckernels.c`` mirrors line by line and the tests verify;
* :mod:`~repro._compiled.cc_backend` — a ctypes-loaded shared library
  compiled on demand from ``ckernels.c`` with the system C compiler;
* :mod:`~repro._compiled.backend` — resolution, caching and the
  ``REPRO_COMPILED_BACKEND`` override.

Nothing here is required: when no backend is available the registry's numpy
kernels and the SAE/SARE oracle's numpy batch path solve everything, at the
old speed.
"""

from .backend import CompiledBackend, get_backend, reset_backend

__all__ = ["CompiledBackend", "get_backend", "reset_backend"]
