"""Pure measurement helpers: percentiles, failure accounting, arrival schedules.

Nothing here touches the program under test, so the self-tests in
``test_perfbench.py`` can pin the benchmark's own arithmetic exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

#: Outcomes an operation can have.  ``lost`` means the connection closed, or
#: no reply came before the run ended; every status but ``ok`` is a failure.
STATUSES = ("ok", "overloaded", "unavailable", "error", "lost")

#: Spawn key that separates the arrival schedule from the query streams
#: drawn from the same run seed.
SCHEDULE_STREAM = 2_000_000

#: Program-process launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 5


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation, failures kept.

    Failed operations enter ``values`` as ``+inf``.  Unlike ``np.percentile``
    this never turns ``inf - inf`` into NaN: a rank that touches a failure
    reads ``+inf``, so refusals can only make latency look worse.
    """
    if not len(values):
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    if weight == 0.0 or ordered[low] == ordered[high]:
        return float(ordered[low])
    if math.isinf(ordered[high]):
        return math.inf
    return float(ordered[low] + weight * (ordered[high] - ordered[low]))


def sliced_percentile(origins: Sequence[float], values: Sequence[float], q: float,
                      start: float, slice_seconds: float, over: float) -> float:
    """The ``over``-th percentile, across a run's slices, of each slice's ``q``-th percentile.

    ``values[i]`` falls in the ``slice_seconds`` slice (counted from
    ``start``) that holds ``origins[i]``; empty slices are skipped.  With a
    low ``over`` this is the tail the program reaches while the host lets it
    run: a host stall moves the slices it falls in, and on a shared host
    these can be most of a run, while a program that got slower moves every
    slice.  Raising any value never lowers the result, so failures
    (``+inf``) can still only make latency look worse.
    """
    slices: Dict[int, List[float]] = {}
    for origin, value in zip(origins, values):
        slices.setdefault(int((origin - start) // slice_seconds), []).append(value)
    if not slices:
        raise ValueError("percentile of an empty sample")
    return percentile([percentile(sample, q) for sample in slices.values()], over)


@dataclass
class Accounting:
    """Per-workload outcome counts; ``attempted`` is their sum."""

    counts: Dict[str, int] = field(default_factory=lambda: {s: 0 for s in STATUSES})

    def record(self, status: str, count: int = 1) -> None:
        # A status outside the wire schema is an error outcome, not a new key.
        self.counts[status if status in self.counts else "error"] += count

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def ok(self) -> int:
        return self.counts["ok"]

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "attempted": self.attempted,
            **self.counts,
            "failed_share": self.failed_share,
        }


def poisson_schedule(rate: float, duration: float, seed: int) -> np.ndarray:
    """Seeded Poisson arrival offsets (seconds) in ``[0, duration)``.

    The same ``(rate, duration, seed)`` gives the same schedule bit for bit,
    so every run of one seed offers the daemon exactly the same load.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(SCHEDULE_STREAM,)))
    expected = rate * duration
    gaps = rng.exponential(1.0 / rate, size=int(expected + 10 * math.sqrt(expected) + 10))
    offsets = np.cumsum(gaps)
    while offsets[-1] < duration:  # practically never: 10 sigma of head-room
        more = offsets[-1] + np.cumsum(rng.exponential(1.0 / rate, size=len(gaps)))
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration]


def peak_rss_mb(pid: Union[int, str] = "self") -> float:
    """A process's peak resident set (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")


def cpu_ticks() -> Tuple[int, int]:
    """``(steal, total)`` jiffies of all CPUs from ``/proc/stat``.

    Steal is time the hypervisor ran something else while a vCPU wanted to
    run; its share over a run tells a contended host from a slow program.
    """
    with open("/proc/stat") as stat:
        fields = [int(value) for value in stat.readline().split()[1:]]
    return fields[7], sum(fields)


def speed_probe(repeats: int = 5) -> float:
    """Median milliseconds of a fixed pure-Python plus numpy loop.

    Taken before and after each workload: when both readings are high the
    host was in one of its slow phases, not the program.
    """
    matrix = np.arange(256 * 256, dtype=float).reshape(256, 256) / 65536.0
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i
        for _ in range(20):
            matrix = np.sqrt(matrix @ matrix.T / 256.0 + 1.0)
        timings.append(1000.0 * (time.perf_counter() - started))
    return float(np.median(timings))
