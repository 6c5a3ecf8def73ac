"""Keep multi-megabyte arrays off glibc's brk heap in processes that build.

glibc serves a block of at least its mmap threshold from a mapping of its
own, which ``free`` unmaps.  By default the threshold is dynamic: it rises to
the size of each mapped block freed (up to 32 MiB), so once one
multi-megabyte numpy array is gone, later ones of that size are carved from
the brk heap.  A small allocation that settles in the gap a freed array
leaves keeps the gap's pages resident and sends the next array to the top of
the heap.  A loop of store misses that allocates several arrays of one size
per build (the caller's data matrix, the DP's error and parent tables) then
has a peak resident set that varies by one array from run to run.

:func:`map_large_arrays` freezes the dynamic rule at 4 MiB: larger blocks
are always mapped and unmapped, and the heap top is trimmed above 8 MiB,
twice the threshold, as the dynamic rule would set it.  Smaller working sets
stay on the heap and are reused from one build to the next.
"""

from __future__ import annotations

import ctypes
import functools
import platform

__all__ = ["map_large_arrays"]

#: ``mallopt`` parameters from glibc's ``<malloc.h>``.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


@functools.lru_cache(maxsize=None)
def map_large_arrays() -> bool:
    """Fix glibc's mmap and trim thresholds for this process (once).

    Returns whether they are in effect; on any C library but glibc this
    does nothing and returns ``False``.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )
