"""Numba backend: ``@njit`` compilation of the shared kernel source.

Importing this module raises :class:`ImportError` when numba is not
installed (``pip install repro-synopses[fast]`` provides it); the backend
resolver treats that as "backend unavailable" and moves on.  The jitted
functions are compiled from :mod:`repro._compiled.kernels_py` verbatim —
``fastmath`` stays off so the IEEE semantics (and hence the bit-identical
optima the test matrix demands) are preserved, and ``nogil`` lets future
threaded callers overlap solves.

Compilation happens lazily on the first call per signature; ``cache=True``
persists the machine code next to the package so later processes skip it.
"""

from __future__ import annotations

import numba

from . import kernels_py

__all__ = ["dp_divide_conquer", "dp_dense", "absolute_span_costs", "version"]

version = numba.__version__

_jit = numba.njit(cache=True, fastmath=False, nogil=True)

dp_divide_conquer = _jit(kernels_py.dp_divide_conquer)
dp_dense = _jit(kernels_py.dp_dense)
absolute_span_costs = _jit(kernels_py.absolute_span_costs)
