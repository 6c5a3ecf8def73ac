"""Shared environment capture for the benchmark artefacts.

Every ``bench_*.py`` script stamps its JSON artefact with the same
``environment`` block so runs from different machines (or the same machine
before and after a toolchain change) can be compared honestly.  The block
records the interpreter, numpy, the hardware, and — because the compiled
kernel backend is the single biggest wall-clock lever — which compiled
backend (if any) was active.  Hosts that match on all of those can still
differ several-fold in speed, so the block also names the CPU model and
times a fixed calibration loop.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Any, Dict

import numpy as np

from repro._compiled import get_backend


def cpu_model() -> str:
    """The first ``model name`` in ``/proc/cpuinfo``, else ``platform.processor()``."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    return value.strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def speed_probe_ms() -> float:
    """Median milliseconds of five runs of a fixed pure-Python plus numpy loop.

    The loop is a copy of ``speed_probe`` in ``perfbench/measure.py``, not an
    import: ``perfbench/`` belongs to the benchmark definition and may change
    on its own, while these readings must stay comparable across artefacts.
    """
    matrix = np.arange(256 * 256, dtype=float).reshape(256, 256) / 65536.0
    timings = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i
        for _ in range(20):
            matrix = np.sqrt(matrix @ matrix.T / 256.0 + 1.0)
        timings.append(1000.0 * (time.perf_counter() - started))
    return float(np.median(timings))


def environment() -> Dict[str, Any]:
    """The common ``environment`` payload for benchmark JSON artefacts."""
    backend = get_backend()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_model": cpu_model(),
        "speed_probe_ms": round(speed_probe_ms(), 2),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "compiled_backend": backend.name if backend is not None else "none",
    }


def host_line(env: Dict[str, Any]) -> str:
    """One printable line naming the host speed fields of ``env``."""
    return f"[host] {env['cpu_model']} | speed probe {env['speed_probe_ms']} ms"
