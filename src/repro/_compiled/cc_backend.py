"""C backend: on-demand ``cc``-compiled shared library driven via ctypes.

When a C compiler is on the PATH (``cc``, ``gcc`` or ``clang``), the
kernels in ``ckernels.c`` — a line-by-line
transliteration of :mod:`repro._compiled.kernels_py` — are compiled once
into a small shared library and loaded with ctypes.  The build is cached
under the user cache directory, keyed by a hash of the C source, so a
process pays the (sub-second) compile at most once per source revision and
later processes pay nothing.

The build deliberately passes ``-ffp-contract=off``: fused multiply-adds
would reassociate the span-cost arithmetic away from the numpy oracles'
operation order and break the bit-identical-optimum contract the kernel
test matrix enforces.

Importing this module raises :class:`ImportError` when no compiler is
available or the build fails (with a ``RuntimeWarning`` naming the failure
in the latter case); the backend resolver treats that as "no compiled
backend", and the numpy kernels solve everything.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np

__all__ = ["dp_divide_conquer", "dp_dense", "absolute_span_costs", "version"]

_SOURCE = Path(__file__).resolve().parent / "ckernels.c"

_C_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_C_INT64_P = ctypes.POINTER(ctypes.c_int64)


def _compiler() -> str:
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    raise ImportError("no C compiler (cc/gcc/clang) on the PATH")


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(Path.home(), ".cache")
    candidates = [Path(root) / "repro-synopses", Path(tempfile.gettempdir()) / "repro-synopses"]
    for candidate in candidates:
        try:
            candidate.mkdir(parents=True, exist_ok=True)
            return candidate
        except OSError:
            continue
    raise ImportError("no writable cache directory for the compiled kernels")


def _build_library() -> Path:
    source = _SOURCE.read_bytes()
    tag = hashlib.sha256(source).hexdigest()[:16]
    target = _cache_dir() / f"ckernels-{tag}-{platform.machine()}.so"
    if target.exists():
        return target
    cc = _compiler()
    # Compile to a unique temporary name, then publish atomically so
    # concurrent processes never load a half-written library.
    fd, scratch = tempfile.mkstemp(suffix=".so", dir=str(target.parent))
    os.close(fd)
    command = [
        cc, "-O2", "-fPIC", "-shared", "-ffp-contract=off",
        str(_SOURCE), "-o", scratch, "-lm",
    ]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        os.unlink(scratch)
        raise ImportError(f"compiling the C kernels failed: {exc!r}") from exc
    if proc.returncode != 0:
        os.unlink(scratch)
        warnings.warn(
            f"compiling the C kernel backend failed ({cc} exited "
            f"{proc.returncode}): {proc.stderr.strip()[:500]}",
            RuntimeWarning,
            stacklevel=2,
        )
        raise ImportError(f"{cc} failed to build the C kernels")
    os.replace(scratch, target)
    return target


_lib = ctypes.CDLL(str(_build_library()))

_lib.repro_dp_divide_conquer.restype = None
_lib.repro_dp_divide_conquer.argtypes = [
    _C_DOUBLE_P, _C_DOUBLE_P, _C_DOUBLE_P,
    ctypes.c_int64, ctypes.c_int64, _C_DOUBLE_P, _C_INT64_P,
]
_lib.repro_dp_dense.restype = None
_lib.repro_dp_dense.argtypes = _lib.repro_dp_divide_conquer.argtypes
_lib.repro_absolute_span_costs.restype = None
_lib.repro_absolute_span_costs.argtypes = [
    _C_DOUBLE_P, _C_DOUBLE_P, _C_DOUBLE_P, _C_DOUBLE_P, _C_DOUBLE_P, ctypes.c_int64,
    _C_INT64_P, _C_INT64_P, ctypes.c_int64, _C_DOUBLE_P,
]

version = "cc"


def _dptr(array: np.ndarray):
    return array.ctypes.data_as(_C_DOUBLE_P)


def _iptr(array: np.ndarray):
    return array.ctypes.data_as(_C_INT64_P)


def dp_divide_conquer(pa, pb, pc, errors, parents):
    """See :func:`repro._compiled.kernels_py.dp_divide_conquer`."""
    max_buckets, n = errors.shape
    _lib.repro_dp_divide_conquer(
        _dptr(pa), _dptr(pb), _dptr(pc), n, max_buckets, _dptr(errors), _iptr(parents)
    )


def dp_dense(pa, pb, pc, errors, parents):
    """See :func:`repro._compiled.kernels_py.dp_dense`."""
    max_buckets, n = errors.shape
    _lib.repro_dp_dense(
        _dptr(pa), _dptr(pb), _dptr(pc), n, max_buckets, _dptr(errors), _iptr(parents)
    )


def absolute_span_costs(below_w, below_wv, prefix_w, prefix_wv, values, starts, ends, out):
    """See :func:`repro._compiled.kernels_py.absolute_span_costs`."""
    _lib.repro_absolute_span_costs(
        _dptr(below_w), _dptr(below_wv), _dptr(prefix_w), _dptr(prefix_wv), _dptr(values),
        values.shape[0], _iptr(starts), _iptr(ends), starts.shape[0], _dptr(out),
    )
