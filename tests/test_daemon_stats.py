"""The daemon's ``stats`` reply, pinned byte for byte, and its one source.

One scripted session on one connection moves every ``stats`` key that a
single client can move: coalesced queries, the in-flight cap, a malformed
line, an unknown op, a version mismatch, an out-of-domain query and a query
for an unknown target.  The keys it cannot reach (drained queries,
``unavailable``, the store and build rungs of the ladder, evictions) are
pinned by their own tests in ``tests/test_daemon.py``.

Every ``stats`` key reads one instrument of the daemon's own registry, so
the ``metrics`` scrape agrees with it, and two daemons in one process do not
count each other's events.
"""

import asyncio
import json
import re

import pytest

from repro.core.spec import SynopsisSpec
from repro.datasets import generate_sensor_readings
from repro.service import DaemonConfig, QueryRequest, ServingDaemon, SynopsisStore
from repro.telemetry import parse_prometheus_text

DOMAIN = 64
TARGETS = {
    "default": SynopsisSpec(kind="histogram", budget=8, metric="sse"),
    "wave": SynopsisSpec(kind="wavelet", budget=6, metric="sse"),
}
# The window holds each batch open long enough for one write to be read whole,
# and the in-flight cap is what overloads the one connection.
CONFIG = DaemonConfig(window_ms=100.0, max_pending=4, max_inflight_per_client=3)
STATS = b'{"op":"stats"}\n'
METRICS = b'{"op":"metrics"}\n'


def line(request, **overrides):
    """``request`` as one wire line, with ``overrides`` applied to its fields."""
    return (json.dumps({**request.to_dict(), **overrides}) + "\n").encode()


#: The session, one write per entry.  Every line of a write is answered
#: before the next write goes out.
SESSION = (
    # Three queries coalesce into one batch; the cap of three overloads two.
    [line(QueryRequest.point(i, i)) for i in range(5)],
    # A batch of one on the other target.
    [line(QueryRequest.point("w", 3, target="wave"))],
    # Each of these is rejected on its own.
    [
        b"{broken json\n",
        b'{"op": "teleport", "id": "t"}\n',
        line(QueryRequest.point("v", 1), version=9),
        line(QueryRequest.range_sum("far", 0, DOMAIN + 5)),
        line(QueryRequest.point("lost", 1, target="nope")),
    ],
)


@pytest.fixture(scope="module")
def model():
    return generate_sensor_readings(DOMAIN, seed=11)


def run_session(model, store_dir, *controls):
    """Play :data:`SESSION` on one connection to a fresh daemon, then each
    control line in turn; returns the stopped daemon and the control replies."""

    async def main():
        daemon = ServingDaemon(model, SynopsisStore(store_dir), TARGETS, config=CONFIG,
                               default_target="default")
        host, port = await daemon.start(port=0)
        try:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for lines in SESSION:
                    writer.write(b"".join(lines))
                    await writer.drain()
                    for _ in lines:
                        await asyncio.wait_for(reader.readline(), 10.0)
                replies = []
                for control in controls:
                    writer.write(control)
                    await writer.drain()
                    replies.append(await asyncio.wait_for(reader.readline(), 10.0))
                return daemon, replies
            finally:
                writer.close()
                await writer.wait_closed()
        finally:
            await daemon.stop()

    return asyncio.run(main())


GOLDEN_STATS = (
    b'{"op":"stats","version":2,"stats":{"connections":1,"requests":12,'
    b'"queries_answered":4,"engine_batches":2,"coalesced_queries":3,"largest_batch":3,'
    b'"overloaded":2,"unavailable":0,"protocol_errors":2,"version_rejections":1,'
    b'"invalid_queries":2,"internal_errors":0,"engine_cache_hits":2,'
    b'"engine_store_resolutions":0,"engine_builds":0,"engine_evictions":0,'
    b'"drained_queries":0,"coalescing_factor":2.0},"store":{"lookups":2,"builds":2,'
    b'"memory_hits":0,"disk_hits":0,"puts":2,"evictions":0,"build_seconds":BUILD,'
    b'"disk_load_seconds":0.0,"disk_hits_by_backend":{}}}\n'
)


def test_stats_reply_matches_the_golden_bytes(model, tmp_path):
    _, (reply,) = run_session(model, tmp_path / "store", STATS)
    # The warm-up builds' wall time is the one value that varies between runs.
    build_seconds = json.loads(reply)["store"]["build_seconds"]
    assert isinstance(build_seconds, float) and build_seconds > 0
    masked = re.sub(rb'"build_seconds":[^,]+,', b'"build_seconds":BUILD,', reply)
    assert masked == GOLDEN_STATS


#: Each ``stats`` key and the daemon family it reads: a ``(label, value)``
#: pair picks one child, ``None`` sums every child.
FAMILY_OF_KEY = {
    "connections": ("repro_daemon_connections_total", None),
    "requests": ("repro_daemon_requests_total", None),
    "queries_answered": ("repro_daemon_queries_answered_total", None),
    "engine_batches": ("repro_daemon_engine_batches_total", None),
    "coalesced_queries": ("repro_daemon_coalesced_queries_total", None),
    "largest_batch": ("repro_daemon_largest_batch", None),
    "overloaded": ("repro_daemon_admission_rejections_total", None),
    "unavailable": ("repro_daemon_errors_total", ("cause", "unavailable")),
    "protocol_errors": ("repro_daemon_errors_total", ("cause", "protocol")),
    "version_rejections": ("repro_daemon_errors_total", ("cause", "version")),
    "invalid_queries": ("repro_daemon_errors_total", ("cause", "invalid_query")),
    "internal_errors": ("repro_daemon_errors_total", ("cause", "internal")),
    "engine_cache_hits": ("repro_daemon_ladder_total", ("rung", "hot")),
    "engine_store_resolutions": ("repro_daemon_ladder_total", ("rung", "store")),
    "engine_builds": ("repro_daemon_ladder_total", ("rung", "build")),
    "engine_evictions": ("repro_daemon_engine_evictions_total", None),
    "drained_queries": ("repro_daemon_drained_queries_total", None),
}


def sample(families, name, label=None):
    """The value of family ``name``: one child's, or the sum of every child's."""
    return sum(value for _, labels, value in families[name].samples
               if label is None or tuple(labels.items()) == (label,))


def test_every_stats_key_equals_its_family_in_the_scrape(model, tmp_path):
    _, (stats_reply, metrics_reply) = run_session(model, tmp_path / "store", STATS, METRICS)
    stats = json.loads(stats_reply)["stats"]
    families = parse_prometheus_text(json.loads(metrics_reply)["body"])
    assert set(stats) == {*FAMILY_OF_KEY, "coalescing_factor"}
    for key, (name, label) in FAMILY_OF_KEY.items():
        # The scrape's own line is one request the stats reply did not see.
        later = 1 if key == "requests" else 0
        assert sample(families, name, label) == stats[key] + later, key
    # The broken line and the unknown op name no known op.
    assert sample(families, "repro_daemon_requests_total", ("op", "invalid")) == 2
    assert stats["coalescing_factor"] == stats["queries_answered"] / stats["engine_batches"]


def test_each_daemon_scrapes_only_its_own_events(model, tmp_path):
    async def ask(daemon, queries):
        """``queries`` point queries, one at a time, then a scrape, on one connection."""
        reader, writer = await asyncio.open_connection(*daemon.address)
        try:
            for item in range(queries):
                writer.write(line(QueryRequest.point(item, item)))
                await writer.drain()
                await asyncio.wait_for(reader.readline(), 10.0)
            writer.write(METRICS)
            await writer.drain()
            return await asyncio.wait_for(reader.readline(), 10.0)
        finally:
            writer.close()
            await writer.wait_closed()

    async def main():
        first, second = (
            ServingDaemon(model, SynopsisStore(tmp_path / "store"), TARGETS,
                          default_target="default")
            for _ in range(2)
        )
        try:
            await first.start(port=0)
            await second.start(port=0)
            await ask(first, 10)
            return await ask(second, 3)
        finally:
            await first.stop()
            await second.stop()

    families = parse_prometheus_text(json.loads(asyncio.run(main()))["body"])
    assert sample(families, "repro_daemon_queries_answered_total") == 3
    assert sample(families, "repro_daemon_connections_total") == 1
    assert sample(families, "repro_daemon_requests_total", ("op", "query")) == 3
