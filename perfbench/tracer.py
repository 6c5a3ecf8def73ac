"""Per-layer timers for the traced run, installed from outside the program.

:class:`Tracer` swaps public functions of the program's layers for timing
wrappers and swaps the originals back on :meth:`Tracer.uninstall`.  The
program's source is untouched, so the untraced run measures exactly what
users run, and the traced run's cost shows as ``trace.overhead``.

A stage is timed only at its outermost call: a kernel that delegates to
another kernel's ``solve`` is counted once.  Totals are keyed by
``(stage, label)``; the build loop sets :attr:`Tracer.label` to the job kind
so one build's stages land under that kind.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(module, attribute path, stage)``: the public calls the traced run
#: times.  A dotted attribute names a method or classmethod of a class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.server", "parse_request_line", "protocol.parse"),
    ("repro.service.protocol", "QueryRequest.from_dict", "protocol.parse"),
    ("repro.service.server", "responses_for", "protocol.encode"),
    ("repro.service.protocol", "QueryResponse.to_dict", "protocol.encode"),
    ("repro.service.queries", "QueryBatch.from_requests", "queries.batch"),
    ("repro.service.engine", "BatchQueryEngine.answer", "engine.answer"),
    ("repro.service.engine", "BatchQueryEngine.attribute_errors", "engine.attribute"),
    ("repro.service.store", "SynopsisStore.get", "store.load"),
    ("repro.service.store", "SynopsisStore.put", "store.put"),
    ("repro.evaluation.errors", "per_item_expected_errors", "evaluation.errors"),
    ("repro.histograms.factory", "make_cost_function", "histograms.oracle"),
    ("repro.histograms.kernels.base", "DynamicProgramResult.histogram", "kernels.reconstruct"),
    ("repro.wavelets.nonsse", "restricted_wavelet_sweep", "wavelets.dp"),
)

#: Stage of every concrete ``DPKernel.solve`` (labelled by kernel name too).
KERNEL_STAGE = "kernels.dp"


def _kernel_classes() -> List[type]:
    base = importlib.import_module("repro.histograms.kernels.base").DPKernel
    importlib.import_module("repro.histograms.kernels")  # registers every kernel
    found, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in found if "solve" in vars(cls)]


class Tracer:
    """Accumulates wall time per ``(stage, label)`` while installed.

    ``disk_bytes`` (optional) returns the store directory's size; around each
    ``SynopsisStore.put`` its growth is added to the ``store.put_bytes`` count.
    """

    def __init__(self, disk_bytes: Optional[Callable[[], int]] = None):
        self.label: Optional[str] = None
        self.seconds: Dict[Tuple[str, Optional[str]], float] = defaultdict(float)
        self.calls: Dict[Tuple[str, Optional[str]], int] = defaultdict(int)
        self.counts: Dict[Tuple[str, Optional[str]], float] = defaultdict(float)
        self._disk_bytes = disk_bytes
        self._active: set = set()
        self._patches: List[Tuple[Any, str, Any]] = []

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("the tracer is already installed")
        for module_name, path, stage in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, name = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            self._patch(owner, name, stage)
        for cls in _kernel_classes():
            self._patch(cls, "solve", KERNEL_STAGE)
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner: Any, name: str, stage: str) -> None:
        raw = vars(owner)[name]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        timed = self._timed(func, stage)
        setattr(owner, name, classmethod(timed) if is_classmethod else timed)
        self._patches.append((owner, name, raw))

    def _timed(self, func: Callable, stage: str) -> Callable:
        active = self._active

        @functools.wraps(func)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if stage in active:
                return func(*args, **kwargs)
            active.add(stage)
            before = self._disk_bytes() if stage == "store.put" and self._disk_bytes else 0
            started = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                active.discard(stage)
            self._record(stage, args, result, elapsed, before)
            return result

        return timed

    def _record(self, stage: str, args: tuple, result: Any, elapsed: float,
                disk_before: int) -> None:
        if stage == "store.load" and result is None:
            return  # a miss is bookkeeping of the build, not a load
        key = (stage, self.label)
        self.seconds[key] += elapsed
        self.calls[key] += 1
        if stage == KERNEL_STAGE:
            self.counts[(f"kernels.resolved.{args[0].name}", self.label)] += 1
        elif stage == "store.put" and self._disk_bytes:
            self.counts[("store.put_bytes", self.label)] += self._disk_bytes() - disk_before

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready copy of the totals, keys ``"stage|label"``."""

        def flat(table: Dict[Tuple[str, Optional[str]], float]) -> Dict[str, float]:
            return {f"{stage}|{label or ''}": value for (stage, label), value in table.items()}

        return {
            "seconds": flat(self.seconds),
            "calls": flat(self.calls),
            "counts": flat(self.counts),
        }


def delta(after: Dict[str, Dict[str, float]], before: Dict[str, Dict[str, float]]
          ) -> Dict[str, Dict[str, float]]:
    """Snapshot difference (what accumulated between two snapshots)."""
    return {
        table: {
            key: value - before[table].get(key, 0)
            for key, value in after[table].items()
        }
        for table in ("seconds", "calls", "counts")
    }
