"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  The more specific subclasses distinguish problems with
the probabilistic input data from problems with synopsis construction or
evaluation requests.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ModelValidationError(ReproError, ValueError):
    """Raised when a probabilistic data model is malformed.

    Examples include negative probabilities, per-tuple probabilities summing
    to more than one, items outside the declared ordered domain, or empty
    inputs where a non-empty model is required.
    """


class DomainError(ReproError, ValueError):
    """Raised when an item index lies outside the ordered domain ``[0, n)``."""


class SynopsisError(ReproError, ValueError):
    """Raised when a synopsis cannot be built as requested.

    Examples include a bucket budget larger than the domain, a non-positive
    budget, or an error metric that the requested construction does not
    support.
    """


class EvaluationError(ReproError, ValueError):
    """Raised when an expected-error evaluation request is invalid."""


class ProtocolError(ReproError, ValueError):
    """Raised when a serving-protocol request or response payload is malformed.

    The wire schema (:mod:`repro.service.protocol`) is strict: every request
    names its schema version, its query kind and a well-formed item range,
    and every response carries a known status.  Violations — unparseable
    JSON, missing or unknown fields, a range with ``end < start`` — raise
    this type, which the daemon maps onto an ``error`` response instead of
    dropping the connection.
    """


class VersionMismatchError(ProtocolError):
    """Raised when a payload declares an unsupported protocol schema version.

    The version field exists precisely so old clients fail loudly and
    legibly: a mismatched request is answered with a typed error naming both
    versions rather than being misinterpreted under the wrong schema.
    """


class StoreCorruptionError(ReproError, RuntimeError):
    """Raised when a persisted synopsis store entry cannot be trusted.

    Covers a truncated or overwritten columnar pack file, a bad magic string
    or unsupported format version, an index or payload checksum mismatch,
    and malformed JSON entries in the text backend.  The message always names
    the offending path (also available as :attr:`path`), so operators see
    "which file is damaged" instead of a cryptic numpy reshape or JSON
    decode traceback.
    """

    def __init__(self, message: str, *, path=None):
        super().__init__(message if path is None else f"{message} ({path})")
        #: The damaged file, when known.
        self.path = path


class BudgetClampWarning(UserWarning):
    """Warned when a requested budget exceeds what the domain can use.

    A histogram cannot have more buckets than items and a wavelet synopsis
    cannot retain more coefficients than its transform holds; the solvers
    clamp such budgets rather than fail, and this warning makes the clamp
    visible instead of silent.
    """


class KernelFallbackWarning(UserWarning):
    """Warned when a named DP kernel request resolves to a different kernel.

    Requesting a kernel that cannot solve the given oracle exactly (e.g.
    ``divide_conquer`` on a non-monotone oracle, or a ``compiled_*`` kernel
    with no compiled backend installed) falls back along the registry's
    preference order.  The optimum is unchanged — only the speed — but the
    fallback used to be silent; this warning names both the requested and
    the resolved kernel so the caller can fix the call site (or install a C
    compiler).
    """


class WorkerClampWarning(UserWarning):
    """Warned when a requested worker count exceeds the available CPUs.

    Oversubscribing a process pool cannot speed a CPU-bound shard build up —
    it measurably slows it down (pure pool overhead on a smaller machine) —
    so :class:`~repro.core.spec.PartitionSpec` clamps ``workers`` to
    ``os.cpu_count()`` and makes the clamp visible instead of silent.
    """


class BudgetSweepWarning(UserWarning):
    """Warned when a budget sweep is not sorted and duplicate-free.

    Duplicate budgets in a sweep do redundant work downstream (every budget
    is built, keyed and cached independently), and unsorted sweeps make the
    one-DP-serves-all-budgets reads needlessly cache-unfriendly; the spec
    normalises the sweep to sorted-unique order and warns so the caller can
    fix the call site.
    """


class WorldEnumerationError(ReproError, RuntimeError):
    """Raised when exhaustive possible-world enumeration would be too large.

    Exhaustive enumeration is exponential in the input size and is only
    intended as a ground-truth oracle for small inputs (tests and examples).
    """
