"""Versioned wire schema for the synopsis serving layer.

One schema, three surfaces.  :class:`QueryRequest` / :class:`QueryResponse`
define the wire form of query traffic: the vectorised engine path answers a
:class:`~repro.service.queries.QueryBatch` (assembled by
:meth:`QueryBatch.from_requests
<repro.service.queries.QueryBatch.from_requests>` in the CLI, and from
per-target query columns in the daemon), and both the CLI ``query --json``
command and the asyncio daemon (:mod:`repro.service.server`) turn a batch's
answers into newline-delimited JSON with one function,
:func:`encode_responses`, which takes the queries' ids and whose lines are
byte-identical to :meth:`QueryResponse.to_json`.  There is no second place
where an answer is turned into bytes, so the surfaces cannot drift apart.

The schema is versioned (:data:`PROTOCOL_VERSION`): every payload carries a
``version`` field, and anything outside the supported window
``[MIN_PROTOCOL_VERSION, PROTOCOL_VERSION]`` raises the typed
:class:`~repro.exceptions.VersionMismatchError` — an old client fails with a
legible error naming both versions instead of being misread under the wrong
schema.  Version 2 added the ``metrics`` wire op and changed nothing about
query payloads, so version-1 clients remain fully supported.  All other malformations (unknown kinds, inverted ranges, missing or
unexpected fields, unparseable JSON) raise
:class:`~repro.exceptions.ProtocolError`.

Both value objects are frozen, validated at construction, and round-trip
exactly through ``to_dict``/``from_dict`` and ``to_json``/``from_json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import ProtocolError, VersionMismatchError
from .queries import POINT, QUERY_KINDS

__all__ = [
    "PROTOCOL_VERSION",
    "MIN_PROTOCOL_VERSION",
    "QueryRequest",
    "QueryResponse",
    "RequestId",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_OVERLOADED",
    "STATUS_UNAVAILABLE",
    "RESPONSE_STATUSES",
    "OP_QUERY",
    "OP_PING",
    "OP_INFO",
    "OP_STATS",
    "OP_METRICS",
    "OP_SHUTDOWN",
    "WIRE_OPS",
    "encode_responses",
    "error_response",
    "responses_for",
    "latency_summary",
    "parse_request_line",
]

#: Current wire-schema version.  Bump on any field change; additions that
#: leave old payloads parseable widen the compat window instead of breaking
#: old clients.  History: v1 — initial query/control schema (PR 8);
#: v2 — added the ``metrics`` exposition op (PR 10).
PROTOCOL_VERSION = 2

#: Oldest wire-schema version this build still accepts.  Payloads are parsed
#: identically across the window; the window exists so version bumps that
#: only *add* ops do not strand deployed clients.
MIN_PROTOCOL_VERSION = 1

#: A client-chosen request identifier, echoed verbatim on the response.
RequestId = Union[int, str]

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_OVERLOADED = "overloaded"
STATUS_UNAVAILABLE = "unavailable"
#: Every status a :class:`QueryResponse` may carry.  ``overloaded`` is the
#: admission-control rejection (retry later); ``unavailable`` is reserved for
#: a synopsis that cannot be served at all (the daemon keeps every target's
#: engine resident, so it never sends it); ``error`` covers malformed or
#: unanswerable requests.
RESPONSE_STATUSES: Tuple[str, ...] = (
    STATUS_OK,
    STATUS_ERROR,
    STATUS_OVERLOADED,
    STATUS_UNAVAILABLE,
)

#: Wire operations the daemon understands.  A request line with no ``op``
#: field is a query; the control operations are tiny JSON objects of their
#: own (see DESIGN.md, "Serving daemon").
OP_QUERY = "query"
OP_PING = "ping"
OP_INFO = "info"
OP_STATS = "stats"
OP_METRICS = "metrics"
OP_SHUTDOWN = "shutdown"
WIRE_OPS: Tuple[str, ...] = (
    OP_QUERY,
    OP_PING,
    OP_INFO,
    OP_STATS,
    OP_METRICS,
    OP_SHUTDOWN,
)

_REQUEST_FIELDS = ("version", "id", "kind", "start", "end", "target")
_RESPONSE_FIELDS = ("version", "id", "status", "answer", "expected_error", "detail")


def _check_version(version: Any) -> int:
    if not isinstance(version, int) or isinstance(version, bool):
        raise ProtocolError(f"protocol version must be an integer, got {version!r}")
    if not MIN_PROTOCOL_VERSION <= version <= PROTOCOL_VERSION:
        raise VersionMismatchError(
            f"unsupported protocol version {version} (this build speaks "
            f"versions {MIN_PROTOCOL_VERSION}..{PROTOCOL_VERSION})"
        )
    return version


def _check_id(request_id: Any) -> RequestId:
    if isinstance(request_id, bool) or not isinstance(request_id, (int, str)):
        raise ProtocolError(
            f"request id must be a string or an integer, got {type(request_id).__name__}"
        )
    return request_id


def _check_item(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"query {name} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class QueryRequest:
    """One point / range-sum / range-avg query, as it travels on the wire.

    Parameters
    ----------
    id:
        Client-chosen identifier, echoed on the matching response (responses
        to coalesced batches may arrive out of order).
    kind:
        One of :data:`~repro.service.queries.QUERY_KINDS`.
    start, end:
        Inclusive item range; point queries carry ``start == end``.
    target:
        Name of the served synopsis to query (``None`` = the daemon's
        default target).
    version:
        Wire-schema version; anything outside
        ``[MIN_PROTOCOL_VERSION, PROTOCOL_VERSION]`` raises
        :class:`~repro.exceptions.VersionMismatchError`.
    """

    id: RequestId
    kind: str
    start: int
    end: int
    target: Optional[str] = None
    version: int = PROTOCOL_VERSION

    def __post_init__(self) -> None:
        _check_version(self.version)
        _check_id(self.id)
        if self.kind not in QUERY_KINDS:
            raise ProtocolError(
                f"unknown query kind {self.kind!r}; expected one of {QUERY_KINDS}"
            )
        _check_item(self.start, "start")
        _check_item(self.end, "end")
        if self.start < 0 or self.end < self.start:
            raise ProtocolError(f"invalid query range [{self.start}, {self.end}]")
        if self.kind == POINT and self.start != self.end:
            raise ProtocolError(
                f"point query must have start == end, got [{self.start}, {self.end}]"
            )
        if self.target is not None and not isinstance(self.target, str):
            raise ProtocolError(
                f"target must be a string or omitted, got {type(self.target).__name__}"
            )

    @property
    def width(self) -> int:
        """The inclusive range width (1 for point queries)."""
        return self.end - self.start + 1

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def point(cls, request_id: RequestId, item: int, *, target: Optional[str] = None
              ) -> "QueryRequest":
        """A point query for ``item``."""
        return cls(id=request_id, kind="point", start=item, end=item, target=target)

    @classmethod
    def range_sum(cls, request_id: RequestId, start: int, end: int, *,
                  target: Optional[str] = None) -> "QueryRequest":
        """A range-sum query over the inclusive range ``[start, end]``."""
        return cls(id=request_id, kind="range_sum", start=start, end=end, target=target)

    @classmethod
    def range_avg(cls, request_id: RequestId, start: int, end: int, *,
                  target: Optional[str] = None) -> "QueryRequest":
        """A range-average query over the inclusive range ``[start, end]``."""
        return cls(id=request_id, kind="range_avg", start=start, end=end, target=target)

    # ------------------------------------------------------------------
    # Serialisation (exact round-trip)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The wire payload; ``from_dict(to_dict(r)) == r`` exactly."""
        payload: Dict[str, Any] = {
            "version": self.version,
            "id": self.id,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
        }
        if self.target is not None:
            payload["target"] = self.target
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QueryRequest":
        """Parse a wire payload, raising typed errors on any malformation."""
        if not isinstance(payload, Mapping):
            raise ProtocolError(
                f"request payload must be a JSON object, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - set(_REQUEST_FIELDS))
        if unknown:
            raise ProtocolError(f"unknown request field(s): {', '.join(unknown)}")
        missing = [name for name in ("version", "id", "kind", "start", "end")
                   if name not in payload]
        if missing:
            raise ProtocolError(f"request is missing required field(s): {', '.join(missing)}")
        _check_version(payload["version"])
        return cls(
            id=payload["id"],
            kind=payload["kind"],
            start=payload["start"],
            end=payload["end"],
            target=payload.get("target"),
            version=payload["version"],
        )

    def to_json(self) -> str:
        """The payload as one compact JSON line (no trailing newline)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "QueryRequest":
        """Parse one JSON line into a request (typed errors throughout)."""
        return cls.from_dict(parse_request_line(text))


@dataclass(frozen=True)
class QueryResponse:
    """The daemon's (or the engine path's) answer to one :class:`QueryRequest`.

    ``status == "ok"`` carries the answer (and, when the serving engine has
    error attribution, the query's expected-error mass); every other status
    carries a human-readable ``detail`` explaining the rejection.
    """

    id: RequestId
    status: str = STATUS_OK
    answer: Optional[float] = None
    expected_error: Optional[float] = None
    detail: Optional[str] = None
    version: int = PROTOCOL_VERSION

    def __post_init__(self) -> None:
        _check_version(self.version)
        _check_id(self.id)
        if self.status not in RESPONSE_STATUSES:
            raise ProtocolError(
                f"unknown response status {self.status!r}; expected one of "
                f"{RESPONSE_STATUSES}"
            )
        if self.status == STATUS_OK:
            if self.answer is None:
                raise ProtocolError("an ok response must carry an answer")
            if self.detail is not None:
                raise ProtocolError("an ok response must not carry a detail message")
        else:
            if self.answer is not None or self.expected_error is not None:
                raise ProtocolError(f"a {self.status!r} response must not carry an answer")
            if not self.detail:
                raise ProtocolError(f"a {self.status!r} response must carry a detail message")
        for name, value in (("answer", self.answer), ("expected_error", self.expected_error)):
            if value is not None and not isinstance(value, float):
                raise ProtocolError(f"response {name} must be a float, got {value!r}")

    @property
    def ok(self) -> bool:
        """Whether the query was answered."""
        return self.status == STATUS_OK

    def to_dict(self) -> Dict[str, Any]:
        """The wire payload; ``from_dict(to_dict(r)) == r`` exactly."""
        payload: Dict[str, Any] = {
            "version": self.version,
            "id": self.id,
            "status": self.status,
        }
        for name, value in (
            ("answer", self.answer),
            ("expected_error", self.expected_error),
            ("detail", self.detail),
        ):
            if value is not None:
                payload[name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QueryResponse":
        """Parse a wire payload, raising typed errors on any malformation."""
        if not isinstance(payload, Mapping):
            raise ProtocolError(
                f"response payload must be a JSON object, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - set(_RESPONSE_FIELDS))
        if unknown:
            raise ProtocolError(f"unknown response field(s): {', '.join(unknown)}")
        missing = [name for name in ("version", "id", "status") if name not in payload]
        if missing:
            raise ProtocolError(f"response is missing required field(s): {', '.join(missing)}")
        _check_version(payload["version"])
        answer = payload.get("answer")
        expected = payload.get("expected_error")
        return cls(
            id=payload["id"],
            status=payload["status"],
            answer=float(answer) if isinstance(answer, int) and not isinstance(answer, bool)
            else answer,
            expected_error=float(expected)
            if isinstance(expected, int) and not isinstance(expected, bool)
            else expected,
            detail=payload.get("detail"),
            version=payload["version"],
        )

    def to_json(self) -> str:
        """The payload as one compact JSON line (no trailing newline)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "QueryResponse":
        """Parse one JSON line into a response (typed errors throughout)."""
        return cls.from_dict(parse_request_line(text))


def error_response(request_id: Optional[RequestId], detail: str, *,
                   status: str = STATUS_ERROR) -> QueryResponse:
    """A rejection response for ``request_id`` (``"?"`` when the id is unknown).

    Used for every non-``ok`` outcome: validation failures and
    admission-control rejections (``status="overloaded"``).
    """
    return QueryResponse(
        id="?" if request_id is None else request_id, status=status, detail=detail
    )


def _positional(
    requests: Sequence[Any],
    answers: np.ndarray,
    expected_errors: Optional[np.ndarray],
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``answers`` (and ``expected_errors``) as float arrays, one per request."""
    answers = np.asarray(answers, dtype=float)
    if answers.shape != (len(requests),):
        raise ProtocolError(
            f"got {answers.size} answers for {len(requests)} requests; "
            "batch attribution must be positional"
        )
    if expected_errors is not None:
        expected_errors = np.asarray(expected_errors, dtype=float)
        if expected_errors.shape != (len(requests),):
            raise ProtocolError(
                f"got {expected_errors.size} expected errors for {len(requests)} requests"
            )
    return answers, expected_errors


def responses_for(
    requests: Sequence[QueryRequest],
    answers: np.ndarray,
    expected_errors: Optional[np.ndarray] = None,
) -> List[QueryResponse]:
    """Attribute a batch's answers back to its requests, in order.

    ``answers`` (and, optionally, ``expected_errors``) are the engine's
    positional outputs for the batch built by ``QueryBatch.from_requests``.
    :func:`encode_responses` writes the same responses straight to wire bytes.
    """
    answers, expected_errors = _positional(requests, answers, expected_errors)
    return [
        QueryResponse(
            id=request.id,
            status=STATUS_OK,
            answer=float(answers[position]),
            expected_error=None if expected_errors is None
            else float(expected_errors[position]),
        )
        for position, request in enumerate(requests)
    ]


def _json_id(request_id: RequestId) -> str:
    """What ``json.dumps`` writes for a validated id, without its per-call set-up."""
    if isinstance(request_id, str):
        return encode_basestring_ascii(request_id)
    return int.__repr__(request_id)


def _json_floats(values: np.ndarray) -> List[str]:
    """What ``json.dumps`` writes for each float (``NaN``/``Infinity`` included)."""
    return json.dumps(values.tolist())[1:-1].split(", ")


def encode_responses(
    ids: Sequence[RequestId],
    answers: np.ndarray,
    expected_errors: Optional[np.ndarray] = None,
) -> List[bytes]:
    """The ``ok`` wire lines answering the queries ``ids``, newline-terminated, in order.

    Line ``i`` is byte-identical to ``QueryResponse(id=ids[i],
    answer=answers[i], expected_error=expected_errors[i]).to_json() + "\\n"``
    (same key order, the same JSON text for every id and float) but is built
    without validating one :class:`QueryResponse` per answer: the ids were
    validated with their queries, and the answers are the engine's floats.
    """
    answers, expected_errors = _positional(ids, answers, expected_errors)
    if not ids:
        return []
    head = '{"version":%d,"id":' % PROTOCOL_VERSION
    id_texts = [_json_id(request_id) for request_id in ids]
    answer_texts = _json_floats(answers)
    if expected_errors is None:
        return [
            f'{head}{request_id},"status":"ok","answer":{answer}}}\n'.encode()
            for request_id, answer in zip(id_texts, answer_texts)
        ]
    return [
        f'{head}{request_id},"status":"ok","answer":{answer},"expected_error":{error}}}\n'
        .encode()
        for request_id, answer, error in zip(id_texts, answer_texts,
                                             _json_floats(expected_errors))
    ]


def latency_summary(latencies_ms: Sequence[float]) -> Dict[str, float]:
    """The shared latency-report shape: p50/p95/p99/max in milliseconds.

    Every latency report of the serving layer — ``replay``, ``query
    --replay`` and ``BENCH_serving.json`` — goes through this one helper so
    the keys cannot drift apart.
    """
    values = np.asarray(latencies_ms if len(latencies_ms) else [0.0], dtype=float)
    return {
        "p50": float(np.percentile(values, 50)),
        "p95": float(np.percentile(values, 95)),
        "p99": float(np.percentile(values, 99)),
        "max": float(values.max()),
    }


def parse_request_line(line: Union[str, bytes]) -> Dict[str, Any]:
    """One newline-delimited wire line as a dict, with typed parse errors."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request line is not valid UTF-8: {exc}") from None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request line is not valid JSON: {exc.msg}") from None
    except ValueError as exc:  # an integer literal past int's digit limit
        raise ProtocolError(f"request line is not valid JSON: {exc}") from None
    except RecursionError:
        raise ProtocolError("request line is not valid JSON: nested too deeply") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request line must be a JSON object, got {type(payload).__name__}"
        )
    return payload
