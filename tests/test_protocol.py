"""The versioned wire schema: exact round-trips and typed validation errors."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProtocolError, ReproError, VersionMismatchError
from repro.service import (
    PROTOCOL_VERSION,
    QueryBatch,
    QueryRequest,
    QueryResponse,
    encode_responses,
    error_response,
    latency_summary,
    responses_for,
)
from repro.service.protocol import (
    RESPONSE_STATUSES,
    STATUS_OVERLOADED,
    parse_request_line,
)


class TestQueryRequest:
    def test_round_trip_is_exact(self):
        request = QueryRequest.range_sum("q1", 3, 9, target="b32")
        assert QueryRequest.from_dict(request.to_dict()) == request
        assert QueryRequest.from_json(request.to_json()) == request

    def test_default_target_is_omitted_from_the_wire(self):
        payload = QueryRequest.point(0, 5).to_dict()
        assert "target" not in payload
        assert payload["version"] == PROTOCOL_VERSION

    def test_constructors_match_kinds(self):
        assert QueryRequest.point("a", 4).kind == "point"
        assert QueryRequest.range_sum("a", 1, 2).kind == "range_sum"
        assert QueryRequest.range_avg("a", 1, 2).kind == "range_avg"
        assert QueryRequest.point("a", 4).width == 1
        assert QueryRequest.range_sum("a", 1, 4).width == 4

    def test_is_frozen(self):
        request = QueryRequest.point("q", 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.start = 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"id": "q", "kind": "median", "start": 0, "end": 0},
            {"id": "q", "kind": "point", "start": 1, "end": 2},
            {"id": "q", "kind": "range_sum", "start": 5, "end": 2},
            {"id": "q", "kind": "range_sum", "start": -1, "end": 2},
            {"id": "q", "kind": "range_sum", "start": 0.5, "end": 2},
            {"id": True, "kind": "point", "start": 0, "end": 0},
            {"id": None, "kind": "point", "start": 0, "end": 0},
            {"id": "q", "kind": "point", "start": 0, "end": 0, "target": 7},
        ],
    )
    def test_invalid_requests_raise_protocol_errors(self, kwargs):
        with pytest.raises(ProtocolError):
            QueryRequest(**kwargs)

    def test_version_mismatch_is_its_own_type(self):
        with pytest.raises(VersionMismatchError):
            QueryRequest.from_dict(
                {"version": PROTOCOL_VERSION + 1, "id": "q", "kind": "point",
                 "start": 0, "end": 0}
            )
        # The hierarchy keeps coarse handlers working: a version mismatch is
        # still a protocol error, still a repro error, still a ValueError.
        assert issubclass(VersionMismatchError, ProtocolError)
        assert issubclass(ProtocolError, ReproError)
        assert issubclass(ProtocolError, ValueError)

    def test_unknown_and_missing_fields_are_rejected(self):
        good = QueryRequest.point("q", 1).to_dict()
        with pytest.raises(ProtocolError, match="unknown request field"):
            QueryRequest.from_dict({**good, "surprise": 1})
        del good["kind"]
        with pytest.raises(ProtocolError, match="missing required field"):
            QueryRequest.from_dict(good)

    def test_parse_errors_are_typed(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            QueryRequest.from_json("{nope")
        with pytest.raises(ProtocolError, match="JSON object"):
            QueryRequest.from_json("[1,2]")
        with pytest.raises(ProtocolError, match="UTF-8"):
            parse_request_line(b"\xff\xfe")

    @pytest.mark.parametrize("line", ["[" * 100_000, '{"id": ' + "7" * 5000 + "}"],
                             ids=["nested", "long-integer"])
    def test_lines_past_the_parser_limits_are_protocol_errors(self, line):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            parse_request_line(line)


class TestVersionWindow:
    """Protocol v2 still speaks to v1 clients: an accepted-version range."""

    def test_current_and_minimum_versions_are_a_sane_window(self):
        from repro.service import MIN_PROTOCOL_VERSION

        assert MIN_PROTOCOL_VERSION <= PROTOCOL_VERSION
        assert MIN_PROTOCOL_VERSION == 1
        assert PROTOCOL_VERSION == 2

    def test_every_version_in_the_window_is_accepted(self):
        from repro.service import MIN_PROTOCOL_VERSION

        base = {"id": "q", "kind": "point", "start": 0, "end": 0}
        for version in range(MIN_PROTOCOL_VERSION, PROTOCOL_VERSION + 1):
            request = QueryRequest.from_dict({**base, "version": version})
            # Round trips are exact: the client's version is preserved, and
            # parsing it back through the window succeeds.
            assert request.version == version
            assert QueryRequest.from_dict(request.to_dict()) == request
        # Freshly constructed payloads (daemon responses) speak the current
        # version.
        assert QueryRequest.point("q", 0).version == PROTOCOL_VERSION

    @pytest.mark.parametrize("version", [0, PROTOCOL_VERSION + 1, 99, -1])
    def test_versions_outside_the_window_are_rejected(self, version):
        base = {"id": "q", "kind": "point", "start": 0, "end": 0}
        with pytest.raises(VersionMismatchError, match="unsupported protocol version"):
            QueryRequest.from_dict({**base, "version": version})

    def test_responses_also_enforce_the_window(self):
        payload = QueryResponse(id="q", answer=1.0).to_dict()
        assert payload["version"] == PROTOCOL_VERSION
        assert QueryResponse.from_dict({**payload, "version": 1}).id == "q"
        with pytest.raises(VersionMismatchError):
            QueryResponse.from_dict({**payload, "version": PROTOCOL_VERSION + 1})


class TestQueryResponse:
    def test_ok_round_trip_is_exact(self):
        response = QueryResponse(id=3, answer=1.2345678901234567, expected_error=0.25)
        assert QueryResponse.from_dict(response.to_dict()) == response
        assert QueryResponse.from_json(response.to_json()) == response

    def test_rejection_round_trip(self):
        rejected = error_response("q", "queue full", status=STATUS_OVERLOADED)
        assert rejected.status == STATUS_OVERLOADED
        assert not rejected.ok
        assert QueryResponse.from_json(rejected.to_json()) == rejected

    def test_unknown_id_becomes_placeholder(self):
        assert error_response(None, "bad line").id == "?"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"id": "q", "status": "ok"},  # ok without an answer
            {"id": "q", "status": "ok", "answer": 1.0, "detail": "noise"},
            {"id": "q", "status": "error"},  # rejection without a detail
            {"id": "q", "status": "error", "detail": "why", "answer": 1.0},
            {"id": "q", "status": "great", "answer": 1.0},
            {"id": "q", "status": "ok", "answer": "1.0"},
        ],
    )
    def test_invalid_responses_raise_protocol_errors(self, kwargs):
        with pytest.raises(ProtocolError):
            QueryResponse(**kwargs)

    def test_statuses_are_closed(self):
        assert set(RESPONSE_STATUSES) == {"ok", "error", "overloaded", "unavailable"}


class TestBatchBridge:
    def test_from_requests_matches_from_tuples(self):
        requests = [
            QueryRequest.point("a", 3),
            QueryRequest.range_sum("b", 1, 7),
            QueryRequest.range_avg("c", 0, 4),
        ]
        batch = QueryBatch.from_requests(requests)
        reference = QueryBatch.from_tuples(
            [("point", 3), ("range_sum", 1, 7), ("range_avg", 0, 4)]
        )
        assert batch.as_tuples() == reference.as_tuples()

    def test_responses_for_attributes_positionally(self):
        requests = [QueryRequest.point(i, i) for i in range(3)]
        responses = responses_for(requests, np.array([1.0, 2.0, 3.0]),
                                  np.array([0.1, 0.2, 0.3]))
        assert [r.id for r in responses] == [0, 1, 2]
        assert [r.answer for r in responses] == [1.0, 2.0, 3.0]
        assert [r.expected_error for r in responses] == [0.1, 0.2, 0.3]
        without_errors = responses_for(requests, np.array([1.0, 2.0, 3.0]))
        assert all(r.expected_error is None for r in without_errors)

    def test_responses_for_rejects_shape_mismatch(self):
        requests = [QueryRequest.point(0, 0)]
        with pytest.raises(ProtocolError, match="positional"):
            responses_for(requests, np.array([1.0, 2.0]))


class TestLatencySummary:
    def test_shape_and_ordering(self):
        summary = latency_summary(list(range(1, 101)))
        assert set(summary) == {"p50", "p95", "p99", "max"}
        assert summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]
        assert summary["max"] == 100.0

    def test_empty_is_all_zero(self):
        assert latency_summary([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}


@settings(max_examples=50, deadline=None)
@given(
    request_id=st.one_of(st.integers(-1000, 1000), st.text(max_size=12)),
    kind=st.sampled_from(["point", "range_sum", "range_avg"]),
    start=st.integers(0, 500),
    length=st.integers(0, 50),
    target=st.one_of(st.none(), st.text(min_size=1, max_size=8)),
)
def test_request_json_round_trip_property(request_id, kind, start, length, target):
    end = start if kind == "point" else start + length
    request = QueryRequest(id=request_id, kind=kind, start=start, end=end, target=target)
    line = request.to_json()
    assert QueryRequest.from_json(line) == request
    # The wire form is plain JSON any client can produce independently.
    assert QueryRequest.from_dict(json.loads(line)) == request


#: Ids as clients send them: any integer, or text with the characters JSON
#: must escape (quotes, backslashes, control characters) and non-ASCII ones.
_WIRE_IDS = st.one_of(
    st.integers(),
    st.text(alphabet=st.sampled_from('q7"\\/\n\t\x00 ,:é€😀'), max_size=10),
    st.text(max_size=10),
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(_WIRE_IDS, st.floats(), st.floats()), max_size=24),
    with_errors=st.booleans(),
)
def test_encode_responses_is_byte_identical_to_to_json(rows, with_errors):
    """The daemon's batch encoder writes exactly the lines ``to_json`` writes,
    non-finite floats (``NaN``, ``Infinity``) and signed zeros included."""
    ids = [request_id for request_id, _, _ in rows]
    answers = np.array([answer for _, answer, _ in rows], dtype=float)
    errors = np.array([error for _, _, error in rows], dtype=float) if with_errors else None
    expected = "".join(
        QueryResponse(
            id=request_id, answer=answer, expected_error=error if with_errors else None
        ).to_json() + "\n"
        for request_id, answer, error in rows
    ).encode()
    lines = encode_responses(ids, answers, errors)
    assert len(lines) == len(rows)
    assert all(line.endswith(b"\n") and line.count(b"\n") == 1 for line in lines)
    assert b"".join(lines) == expected
