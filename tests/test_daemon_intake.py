"""The daemon's request intake, checked on the wire.

Replies are compared byte for byte with a per-line reference model; hostile
lines (deep nesting, huge integers, arbitrary bytes) must each get one error
reply and leave the connection serving; and a connection that the daemon
closes, at EOF or on an oversized line, first gets the answers to every
query it had admitted.
"""

import asyncio
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.spec import SynopsisSpec
from repro.datasets import generate_sensor_readings
from repro.exceptions import ProtocolError
from repro.service import (
    PROTOCOL_VERSION,
    BatchQueryEngine,
    QueryBatch,
    QueryRequest,
    QueryResponse,
    ServingDaemon,
    SynopsisStore,
    error_response,
)
from repro.service.protocol import parse_request_line, request_id_of
from repro.service.server import MAX_LINE_BYTES
from repro.telemetry import parse_prometheus_text

DOMAIN = 64
TARGETS = {
    "default": SynopsisSpec(kind="histogram", budget=8, metric="sse"),
    "wave": SynopsisSpec(kind="wavelet", budget=6, metric="sse"),
}
PING = b'{"op":"ping"}\n'
PONG = {"op": "pong", "version": PROTOCOL_VERSION}


@pytest.fixture(scope="module")
def model():
    return generate_sensor_readings(DOMAIN, seed=11)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("intake-store")


@pytest.fixture(scope="module")
def engines(model, store_dir):
    """The direct engine of every target, over the daemon's store entries."""
    store = SynopsisStore(store_dir)
    return {
        name: BatchQueryEngine.from_model(store.get_or_build(model, spec), model, spec.metric)
        for name, spec in TARGETS.items()
    }


def serve(model, store_dir, body):
    """Run ``body(daemon, reader, writer)`` against a fresh daemon; returns the daemon
    (stopped) and what ``body`` returned."""

    async def main():
        daemon = ServingDaemon(model, SynopsisStore(store_dir), TARGETS,
                               default_target="default")
        host, port = await daemon.start(port=0)
        try:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                return daemon, await asyncio.wait_for(body(daemon, reader, writer), 10.0)
            finally:
                writer.close()
                await writer.wait_closed()
        finally:
            await daemon.stop()

    return asyncio.run(main())


async def read_lines(reader, count):
    return [await reader.readline() for _ in range(count)]


async def read_to_eof(reader):
    return (await reader.read()).splitlines(keepends=True)


def query_line(request_id, item, target=None):
    return (QueryRequest.point(request_id, item, target=target).to_json() + "\n").encode()


# ----------------------------------------------------------------------
# The per-line reference model
# ----------------------------------------------------------------------
def _error(request_id, detail):
    if isinstance(request_id, bool) or not isinstance(request_id, (int, str)):
        request_id = None
    return (error_response(request_id, detail).to_json() + "\n").encode()


def _control(payload):
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def reference_replies(lines, info, engines):
    """What the daemon writes for one read of ``lines``, judged line by line.

    Error and control replies come first, in line order.  Then each target's
    ok replies follow in line order, targets in the order of their first
    admitted query, with answers from the direct engine.
    """
    immediate, admitted = [], {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            payload = parse_request_line(line)
        except ProtocolError as exc:
            immediate.append(_error(request_id_of(line), str(exc)))
            continue
        op = payload.pop("op", "query")
        if op == "ping":
            immediate.append(_control(PONG))
        elif op == "info":
            immediate.append(_control(info))
        elif op != "query":
            immediate.append(_error(payload.get("id"), f"unknown op {op!r}"))
        else:
            try:
                request = QueryRequest.from_dict(payload)
            except ProtocolError as exc:
                immediate.append(_error(payload.get("id"), str(exc)))
                continue
            target = request.target or "default"
            if target not in engines:
                immediate.append(_error(request.id, f"unknown target {target!r}"))
            elif request.end >= DOMAIN:
                immediate.append(_error(
                    request.id,
                    f"query touches item {request.end} but target {target!r} covers "
                    f"[0, {DOMAIN})",
                ))
            else:
                admitted.setdefault(target, []).append(request)
    answered = []
    for target, requests in admitted.items():
        batch = QueryBatch.from_requests(requests)
        engine = engines[target]
        for request, answer, error in zip(requests, engine.answer(batch),
                                          engine.attribute_errors(batch)):
            answered.append((QueryResponse(
                id=request.id, answer=float(answer), expected_error=float(error)
            ).to_json() + "\n").encode())
    return immediate + answered


_IDS = st.one_of(st.integers(-(10**6), 10**6), st.text(max_size=6))
_SEPARATORS = st.sampled_from([(",", ":"), (", ", ": ")])


@st.composite
def _valid_queries(draw):
    kind = draw(st.sampled_from(["point", "range_sum", "range_avg"]))
    start = draw(st.integers(0, DOMAIN - 1))
    end = start if kind == "point" else draw(st.integers(start, DOMAIN - 1))
    payload = {"version": draw(st.sampled_from([1, 2])), "id": draw(_IDS), "kind": kind,
               "start": start, "end": end}
    target = draw(st.sampled_from([None, "default", "wave", "omit"]))
    if target != "omit":
        payload["target"] = target
    if draw(st.booleans()):
        payload = dict(reversed(list(payload.items())))
    return json.dumps(payload, separators=draw(_SEPARATORS)).encode()


#: One line of each malformed or control kind the reference model covers.
_OTHER_LINES = [
    b"{broken json",
    b"\xff\xfe{}",
    b'\xef\xbb\xbf{"op":"ping"}',
    b"[1, 2]",
    b'"text"',
    b"",
    b"   \t",
    b"[" * 5000,
    b'{"id": ' + b"7" * 5000 + b"}",
    b'{"version": 2, "id": true, "kind": "point", "start": 0, "end": 0}',
    b'{"version": 2, "id": 1.5, "kind": "point", "start": 0, "end": 0}',
    b'{"version": 2, "id": [1], "kind": "point", "start": 0, "end": 0}',
    b'{"version": 2, "id": "f", "kind": "point", "start": 0.0, "end": 0}',
    b'{"version": 2, "id": "b", "kind": "point", "start": false, "end": 0}',
    b'{"version": 99, "id": "v", "kind": "point", "start": 0, "end": 0}',
    b'{"version": "2", "id": "v", "kind": "point", "start": 0, "end": 0}',
    b'{"version": 2, "id": "k", "kind": "median", "start": 0, "end": 0}',
    b'{"version": 2, "id": "k", "kind": ["point"], "start": 0, "end": 0}',
    b'{"version": 2, "id": "r", "kind": "range_sum", "start": 5, "end": 2}',
    b'{"version": 2, "id": "n", "kind": "range_sum", "start": -1, "end": 2}',
    b'{"version": 2, "id": "p", "kind": "point", "start": 1, "end": 2}',
    b'{"version": 2, "id": "x", "kind": "point", "start": 0, "end": 0, "extra": 1}',
    b'{"id": "m", "kind": "point", "start": 0, "end": 0}',
    b'{"version": 2, "id": "t", "kind": "point", "start": 0, "end": 0, "target": 7}',
    b'{"version": 2, "id": "u", "kind": "point", "start": 0, "end": 0, "target": "nope"}',
    b'{"version": 2, "id": "o", "kind": "range_sum", "start": 3, "end": 64}',
    b'{"version": 2, "id": "d", "id": 9, "kind": "point", "start": 3, "end": 3}',
    b'{"version": 2, "id": "e", "kind": "point", "start": 3, "end": 3} x',
    b'{"op": "query", "version": 2, "id": "q", "kind": "point", "start": 4, "end": 4}',
    b'{"op": "teleport", "id": "o"}',
    b'{"op": "teleport", "id": [1]}',
    b'{"op": "ping"}',
    b'{"op": "info"}',
]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(st.one_of(_valid_queries(), st.sampled_from(_OTHER_LINES)),
                      max_size=40))
def test_one_read_replies_match_the_per_line_model(model, store_dir, engines, lines):
    data = b"".join(line + b"\n" for line in lines)
    assume(len(data) <= 16 * 1024)  # one send, so one read takes it all in

    async def body(daemon, reader, writer):
        expected = reference_replies(lines, daemon.info(), engines)
        writer.write(data)
        await writer.drain()
        got = await read_lines(reader, len(expected))
        writer.write(PING)  # a pong next shows that no extra reply was written
        return expected, got, await reader.readline()

    daemon, (expected, got, last) = serve(model, store_dir, body)
    assert b"".join(got) == b"".join(expected)
    assert json.loads(last) == PONG
    assert daemon.stats.internal_errors == 0


#: Values a client may put in any field: right and wrong types, in and out of range.
_FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.integers(60, 70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["point", "range_sum", "range_avg", "median", "", "default", "wave"]),
    st.lists(st.integers(0, 2), max_size=1),
)


@st.composite
def _near_valid_payloads(draw):
    """A valid query payload with up to two fields replaced, removed or added."""
    payload = {"version": 2, "id": "q", "kind": "range_sum", "start": 1, "end": 5}
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from([*payload, "target", "op", "extra"]))
        if draw(st.booleans()):
            payload.pop(name, None)
        else:
            payload[name] = draw(_FIELD_VALUES)
    return json.loads(json.dumps(payload))  # as a client's JSON line delivers it


@settings(max_examples=500, deadline=None)
@given(payload=_near_valid_payloads())
def test_the_inline_check_accepts_exactly_what_from_dict_accepts(payload):
    from repro.service.server import _query_fields

    try:
        request = QueryRequest.from_dict(payload)
    except ProtocolError:
        request = None
    fields = _query_fields(payload)
    if request is None:
        assert fields is None
    else:
        kind = ["point", "range_sum", "range_avg"].index(request.kind)
        assert fields == (request.id, kind, request.start, request.end, request.target)


_JSONISH = st.text(
    alphabet='{}[]":,0123456789.-+eE \\ntruefalsidvrkpoa\x00é',
    max_size=120,
).map(str.encode)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(parts=st.lists(st.one_of(st.binary(max_size=80), _JSONISH), max_size=30))
def test_arbitrary_bytes_get_one_reply_per_line(model, store_dir, parts):
    data = b"\n".join(parts)
    lines = data.split(b"\n")
    assert all(len(line) <= MAX_LINE_BYTES for line in lines)
    expected = sum(1 for line in lines if line.strip()) + 1

    async def body(daemon, reader, writer):
        writer.write(data + b"\n" + PING)
        await writer.drain()
        return await read_lines(reader, expected)

    daemon, replies = serve(model, store_dir, body)
    payloads = [json.loads(reply) for reply in replies]  # every line came back whole
    assert all(isinstance(payload, dict) for payload in payloads)
    for payload in payloads[:-1]:
        request_id = payload["id"]
        assert not isinstance(request_id, bool) and isinstance(request_id, (int, str))
    assert payloads[-1] == PONG
    assert daemon.stats.internal_errors == 0


# ----------------------------------------------------------------------
# Counters within one read
# ----------------------------------------------------------------------
def _scrape(reply):
    families = parse_prometheus_text(json.loads(reply)["body"])
    requests = {labels["op"]: value
                for _, labels, value in families["repro_daemon_requests_total"].samples}
    (_, _, pending), = families["repro_daemon_pending_queries"].samples
    return requests.get("query", 0.0), pending


def test_a_metrics_reply_within_a_read_counts_the_queries_before_it(model, store_dir):
    async def body(daemon, reader, writer):
        writer.write(b'{"op":"metrics"}\n')
        await writer.drain()
        before = await reader.readline()
        writer.write(b"".join(query_line(i, i) for i in range(3)) + b'{"op":"metrics"}\n')
        await writer.drain()
        return before, await read_lines(reader, 4)

    _, (before, replies) = serve(model, store_dir, body)
    queries_before, _ = _scrape(before)
    queries, pending = _scrape(replies[0])
    assert queries - queries_before == 3
    assert pending == 3
    assert [json.loads(reply)["id"] for reply in replies[1:]] == [0, 1, 2]


# ----------------------------------------------------------------------
# Hostile lines and closing connections
# ----------------------------------------------------------------------
@pytest.mark.parametrize("hostile", [b"[" * 5000, b'{"id": ' + b"7" * 5000 + b"}"],
                         ids=["nested", "long-integer"])
def test_a_line_past_the_parser_limits_gets_one_error(model, store_dir, hostile):
    async def body(daemon, reader, writer):
        writer.write(hostile + b"\n" + query_line("fine", 2) + PING)
        await writer.drain()
        return await read_lines(reader, 3)

    daemon, replies = serve(model, store_dir, body)
    error, pong, ok = [json.loads(reply) for reply in replies]
    assert error["status"] == "error" and error["id"] == "?"
    assert "not valid JSON" in error["detail"]
    assert pong == PONG
    assert ok["status"] == "ok" and ok["id"] == "fine"
    assert daemon.stats.protocol_errors == 1


def test_a_half_closed_connection_gets_every_answer(model, store_dir):
    async def body(daemon, reader, writer):
        host, port = daemon.address
        for attempt in range(20):
            client_reader, client_writer = await asyncio.open_connection(host, port)
            client_writer.write(
                b"".join(query_line(f"{attempt}-{i}", i) for i in range(3)) + PING
            )
            client_writer.write_eof()
            replies = await read_to_eof(client_reader)
            client_writer.close()
            await client_writer.wait_closed()
            payloads = [json.loads(reply) for reply in replies]
            assert PONG in payloads, attempt
            answered = sorted(p["id"] for p in payloads if p.get("status") == "ok")
            assert answered == [f"{attempt}-{i}" for i in range(3)], attempt
            assert len(payloads) == 4, attempt

    daemon, _ = serve(model, store_dir, body)
    assert daemon.stats.queries_answered == 60


def test_queries_before_an_oversized_line_are_answered(model, store_dir):
    async def body(daemon, reader, writer):
        writer.write(
            b"".join(query_line(i, i) for i in range(3))
            + b'{"op": "ping", "pad": "' + b"x" * 100_000 + b'"}\n'
        )
        await writer.drain()
        replies = await read_to_eof(reader)  # EOF, not a reset
        client_reader, client_writer = await asyncio.open_connection(*daemon.address)
        client_writer.write(PING)
        pong = json.loads(await client_reader.readline())
        client_writer.close()
        await client_writer.wait_closed()
        return replies, pong

    daemon, (replies, pong) = serve(model, store_dir, body)
    payloads = [json.loads(reply) for reply in replies]
    assert len(payloads) == 4
    errors = [p for p in payloads if p["status"] == "error"]
    assert len(errors) == 1 and errors[0]["id"] == "?"
    assert "exceeds" in errors[0]["detail"]
    assert sorted(p["id"] for p in payloads if p["status"] == "ok") == [0, 1, 2]
    assert pong == PONG
    assert daemon.stats.protocol_errors == 1


def test_lines_split_across_reads_are_taken_in_whole(model, store_dir):
    async def body(daemon, reader, writer):
        data = b"".join(query_line(i, i) for i in range(3)) + PING
        for offset in range(0, len(data), 7):
            writer.write(data[offset:offset + 7])
            await writer.drain()
            await asyncio.sleep(0.001)  # let the daemon read each piece on its own
        first = await read_lines(reader, 4)
        writer.write(query_line("last", 5).rstrip(b"\n"))  # unterminated, then EOF
        writer.write_eof()
        return first, await read_to_eof(reader)

    daemon, (first, last) = serve(model, store_dir, body)
    payloads = [json.loads(reply) for reply in first]
    assert PONG in payloads
    assert sorted(p["id"] for p in payloads if p.get("status") == "ok") == [0, 1, 2]
    assert [json.loads(reply)["id"] for reply in last] == ["last"]
    assert daemon.stats.requests == 5


@pytest.mark.parametrize("size", [MAX_LINE_BYTES, MAX_LINE_BYTES + 1])
def test_the_line_limit_counts_bytes_before_the_newline(model, store_dir, size):
    line = b'{"op": "ping", "pad": "'
    line += b"x" * (size - len(line) - 2) + b'"}\n'
    assert len(line) == size + 1

    async def body(daemon, reader, writer):
        writer.write(line + PING)
        await writer.drain()
        reply = json.loads(await reader.readline())
        return reply, await (reader.readline() if size <= MAX_LINE_BYTES else reader.read())

    daemon, (reply, rest) = serve(model, store_dir, body)
    if size <= MAX_LINE_BYTES:
        assert reply == PONG and json.loads(rest) == PONG
    else:
        # The ping after the long line is never read: one error, then EOF.
        assert reply["status"] == "error" and "exceeds" in reply["detail"]
        assert rest == b""
