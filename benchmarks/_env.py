"""Shared environment capture for the benchmark artefacts.

Every ``bench_*.py`` script stamps its JSON artefact with the same
``environment`` block so runs from different machines (or the same machine
before and after a toolchain change) can be compared honestly.  The block
records the interpreter, numpy, the hardware, and — because the compiled
kernel backend is the single biggest wall-clock lever — which compiled
backend (if any) was active.
"""

from __future__ import annotations

import os
import platform
from typing import Any, Dict

from repro._compiled import get_backend


def environment() -> Dict[str, Any]:
    """The common ``environment`` payload for benchmark JSON artefacts."""
    backend = get_backend()
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "compiled_backend": backend.name if backend is not None else "none",
    }
