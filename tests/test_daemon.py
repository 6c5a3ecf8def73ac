"""Asyncio integration tests for the serving daemon.

Every test runs a real :class:`ServingDaemon` on an ephemeral port inside its
own event loop and talks to it over actual sockets — coalescing, admission
control, the degradation ladder and graceful shutdown are exercised as a
client would see them, not via private state.
"""

import asyncio
import json
import socket

import numpy as np
import pytest

from repro.core.spec import SynopsisSpec
from repro.datasets import generate_sensor_readings
from repro.exceptions import ProtocolError, SynopsisError
from repro.service import (
    PROTOCOL_VERSION,
    BatchQueryEngine,
    DaemonClient,
    DaemonConfig,
    QueryRequest,
    QueryResponse,
    ServingDaemon,
    SynopsisStore,
    generate_query_mix,
    stream_rng,
)

DOMAIN = 64


@pytest.fixture(scope="module")
def model():
    return generate_sensor_readings(DOMAIN, seed=11)


@pytest.fixture
def spec():
    return SynopsisSpec(kind="histogram", budget=8, metric="sse")


@pytest.fixture
def daemon_factory(model, spec, tmp_path):
    """Build a daemon over a fresh store; targets default + a wavelet sibling."""

    def make(config=None, targets=None):
        store = SynopsisStore(tmp_path / "store")
        targets = targets or {
            "default": spec,
            "wave": SynopsisSpec(kind="wavelet", budget=6, metric="sse"),
        }
        daemon = ServingDaemon(model, store, targets, config=config,
                               default_target="default")
        return daemon, store

    return make


def run(coroutine):
    return asyncio.run(coroutine)


async def _with_daemon(daemon, body):
    host, port = await daemon.start(port=0)
    try:
        return await body(host, port)
    finally:
        await daemon.stop()


class TestLifecycleAndOps:
    def test_binds_ephemeral_port_and_answers_ping(self, daemon_factory):
        daemon, _ = daemon_factory()

        async def body(host, port):
            assert daemon.address == (host, port)
            assert port != 0
            client = await DaemonClient.connect(host, port)
            try:
                pong = await client.round_trip({"op": "ping"})
            finally:
                await client.close()
            assert pong == {"op": "pong", "version": PROTOCOL_VERSION}

        run(_with_daemon(daemon, body))

    def test_info_lists_targets_and_limits(self, daemon_factory):
        daemon, _ = daemon_factory()

        async def body(host, port):
            client = await DaemonClient.connect(host, port)
            try:
                info = await client.round_trip({"op": "info"})
            finally:
                await client.close()
            assert info["version"] == PROTOCOL_VERSION
            assert info["default_target"] == "default"
            assert set(info["targets"]) == {"default", "wave"}
            assert info["targets"]["default"]["domain_size"] == DOMAIN
            assert info["targets"]["wave"]["kind"] == "wavelet"
            assert info["max_pending"] == daemon.config.max_pending

        run(_with_daemon(daemon, body))

    def test_stats_op_reports_server_and_store_counters(self, daemon_factory):
        daemon, _ = daemon_factory()

        async def body(host, port):
            client = await DaemonClient.connect(host, port)
            try:
                await client.query(QueryRequest.point("q", 3))
                stats = await client.round_trip({"op": "stats"})
            finally:
                await client.close()
            assert stats["stats"]["queries_answered"] == 1
            assert stats["stats"]["engine_batches"] == 1
            assert stats["store"]["builds"] == 2  # both targets warmed

        run(_with_daemon(daemon, body))

    def test_sweep_targets_are_rejected_at_construction(self, daemon_factory, spec):
        with pytest.raises(SynopsisError, match="sweep"):
            daemon_factory(targets={"sweep": spec.with_budget((4, 8))})

    def test_answers_are_bit_identical_to_the_direct_engine(self, daemon_factory,
                                                            model, spec):
        daemon, store = daemon_factory()

        async def body(host, port):
            batch = generate_query_mix(DOMAIN, 60, seed=5)
            requests = [
                QueryRequest(id=f"t-{position}", kind=kind, start=start, end=end)
                for position, (kind, start, end) in enumerate(batch.as_tuples())
            ]
            client = await DaemonClient.connect(host, port)
            try:
                got = [await client.query(request) for request in requests]
            finally:
                await client.close()
            return batch, got

        batch, got = run(_with_daemon(daemon, body))
        synopsis = store.get_or_build(model, spec)
        engine = BatchQueryEngine.from_model(synopsis, model, spec.metric)
        expected = engine.answer(batch)
        expected_errors = engine.attribute_errors(batch)
        assert all(response.ok for response in got)
        assert np.array_equal([r.answer for r in got], expected)
        assert np.array_equal([r.expected_error for r in got], expected_errors)

    def test_every_target_carries_attributed_errors(self, daemon_factory, model):
        # Warm-up computes per-item errors for every target, with no flag to
        # turn it off: the wavelet sibling's answers carry them too.
        daemon, store = daemon_factory()
        wave = SynopsisSpec(kind="wavelet", budget=6, metric="sse")

        async def body(host, port):
            batch = generate_query_mix(DOMAIN, 40, seed=8)
            requests = [
                QueryRequest(id=f"w-{position}", kind=kind, start=start, end=end,
                             target="wave")
                for position, (kind, start, end) in enumerate(batch.as_tuples())
            ]
            client = await DaemonClient.connect(host, port)
            try:
                got = [await client.query(request) for request in requests]
            finally:
                await client.close()
            return batch, got

        batch, got = run(_with_daemon(daemon, body))
        engine = BatchQueryEngine.from_model(
            store.get_or_build(model, wave), model, wave.metric
        )
        assert all(response.ok for response in got)
        assert np.array_equal([r.answer for r in got], engine.answer(batch))
        errors = [r.expected_error for r in got]
        assert np.array_equal(errors, engine.attribute_errors(batch))
        assert max(errors) > 0.0


class TestDaemonClient:
    def test_query_rejects_a_reply_to_another_request(self, daemon_factory):
        daemon, _ = daemon_factory()

        async def body(host, port):
            client = await DaemonClient.connect(host, port)
            try:
                # One reply is still unread, so the next query reads it.
                await client.send(QueryRequest.point("early", 1).to_dict())
                with pytest.raises(ProtocolError, match="does not match"):
                    await client.query(QueryRequest.point("late", 2))
                late = QueryResponse.from_dict(await client.recv())
            finally:
                await client.close()
            return late

        late = run(_with_daemon(daemon, body))
        assert late.id == "late"
        assert late.ok

    def test_recv_after_the_daemon_closes_is_a_protocol_error(self, daemon_factory):
        daemon, _ = daemon_factory(config=DaemonConfig(allow_remote_shutdown=True))

        async def body():
            host, port = await daemon.start(port=0)
            client = await DaemonClient.connect(host, port)
            try:
                ack = await client.round_trip({"op": "shutdown"})
                with pytest.raises(ProtocolError, match="closed the connection"):
                    await asyncio.wait_for(client.recv(), timeout=10.0)
            finally:
                await client.close()
            await asyncio.wait_for(daemon.serve_until_stopped(), timeout=10.0)
            return ack

        ack = run(body())
        assert ack["status"] == "draining"


class TestCoalescing:
    def test_concurrent_queries_share_engine_calls(self, daemon_factory):
        daemon, _ = daemon_factory(config=DaemonConfig(window_ms=20.0))

        async def body(host, port):
            async def one(item):
                client = await DaemonClient.connect(host, port)
                try:
                    return await client.query(QueryRequest.point(f"q{item}", item))
                finally:
                    await client.close()

            responses = await asyncio.gather(*(one(item % DOMAIN) for item in range(40)))
            assert all(response.ok for response in responses)

        run(_with_daemon(daemon, body))
        # Strictly fewer engine calls than queries is the whole point of the
        # micro-batching window.
        assert daemon.stats.queries_answered == 40
        assert daemon.stats.engine_batches < 40
        assert daemon.stats.coalesced_queries > 0
        assert daemon.stats.largest_batch > 1

    def test_one_write_of_queries_is_one_engine_batch(self, daemon_factory):
        daemon, _ = daemon_factory()  # the default window: flush on the next turn

        async def body(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"".join(
                (QueryRequest.point(i, i % DOMAIN).to_json() + "\n").encode()
                for i in range(50)
            ))
            await writer.drain()
            replies = [json.loads(await reader.readline()) for _ in range(50)]
            writer.close()
            await writer.wait_closed()
            return replies

        replies = run(_with_daemon(daemon, body))
        # Every line read in one loop turn joins the flush of the next turn,
        # and its replies come back in request order.
        assert [reply["id"] for reply in replies] == list(range(50))
        assert {reply["status"] for reply in replies} == {"ok"}
        assert daemon.stats.engine_batches == 1
        assert daemon.stats.largest_batch == 50

    def test_full_window_flushes_early_at_max_batch(self, daemon_factory):
        daemon, _ = daemon_factory(
            config=DaemonConfig(window_ms=10_000.0, max_batch=4)
        )

        async def body(host, port):
            client = await DaemonClient.connect(host, port)
            try:
                for i in range(4):
                    await client.send(QueryRequest.point(i, i).to_dict())
                replies = [await client.recv() for _ in range(4)]
            finally:
                await client.close()
            # The 10-second window never fired; four queries hit max_batch
            # and flushed immediately as one engine call.
            assert {reply["status"] for reply in replies} == {"ok"}

        run(_with_daemon(daemon, body))
        assert daemon.stats.engine_batches == 1
        assert daemon.stats.largest_batch == 4

    def test_shutdown_drains_an_armed_window(self, daemon_factory):
        daemon, _ = daemon_factory(config=DaemonConfig(window_ms=10_000.0))

        async def body(host, port):
            client = await DaemonClient.connect(host, port)
            try:
                await client.send(QueryRequest.point("pending", 1).to_dict())
                # Give the dispatcher a beat to admit and arm the window,
                # then stop: the drain must answer the parked query rather
                # than wait out the 10-second timer.
                await asyncio.sleep(0.05)
                await daemon.stop()
                reply = await client.recv()
            finally:
                await client.close()
            assert reply["status"] == "ok"
            assert reply["id"] == "pending"

        run(_with_daemon(daemon, body))
        assert daemon.stats.drained_queries == 1
        assert daemon.stats.queries_answered == 1


class TestAdmissionControl:
    def test_pending_cap_returns_overloaded_not_a_hang(self, daemon_factory):
        daemon, _ = daemon_factory(
            config=DaemonConfig(window_ms=200.0, max_pending=5,
                                max_inflight_per_client=1000)
        )

        async def body(host, port):
            client = await DaemonClient.connect(host, port)
            try:
                for i in range(20):
                    await client.send(QueryRequest.point(i, i % DOMAIN).to_dict())
                replies = [
                    await asyncio.wait_for(client.recv(), timeout=5.0)
                    for _ in range(20)
                ]
                # The burst's rejections leave the connection usable.
                pong = await asyncio.wait_for(client.round_trip({"op": "ping"}), 5.0)
            finally:
                await client.close()
            return replies, pong

        replies, pong = run(_with_daemon(daemon, body))
        statuses = [reply["status"] for reply in replies]
        assert statuses.count("overloaded") == 15
        assert statuses.count("ok") == 5
        for reply in replies:
            if reply["status"] == "overloaded":
                assert "pending" in reply["detail"]
        assert pong == {"op": "pong", "version": PROTOCOL_VERSION}
        assert daemon.stats.overloaded == 15
        assert daemon.stats.internal_errors == 0

    def test_per_client_inflight_cap(self, daemon_factory):
        daemon, _ = daemon_factory(
            config=DaemonConfig(window_ms=200.0, max_inflight_per_client=3,
                                max_pending=1000)
        )

        async def body(host, port):
            client = await DaemonClient.connect(host, port)
            try:
                for i in range(10):
                    await client.send(QueryRequest.point(i, i % DOMAIN).to_dict())
                replies = [
                    await asyncio.wait_for(client.recv(), timeout=5.0)
                    for _ in range(10)
                ]
            finally:
                await client.close()
            return replies

        replies = run(_with_daemon(daemon, body))
        statuses = [reply["status"] for reply in replies]
        assert statuses.count("ok") == 3
        assert statuses.count("overloaded") == 7
        assert daemon.stats.overloaded == 7

    def test_a_client_that_never_reads_stalls_only_itself(self, daemon_factory):
        # Caps high enough to admit every query: the back-pressure is the
        # client's own unread replies, not admission control.
        daemon, _ = daemon_factory(
            config=DaemonConfig(max_pending=100_000, max_inflight_per_client=100_000)
        )

        async def body(host, port):
            loop = asyncio.get_running_loop()
            stalled = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled.setblocking(False)
            await loop.sock_connect(stalled, (host, port))
            line = (QueryRequest.point(7, 3).to_json() + "\n").encode()
            # Far more replies than the kernel buffers between the two hold.
            sender = asyncio.ensure_future(loop.sock_sendall(stalled, line * 200_000))
            try:
                # The unread replies back up until the daemon stops reading
                # this client; the rest of its requests wait in socket buffers.
                read = -1
                while read != daemon.stats.requests:
                    read = daemon.stats.requests
                    await asyncio.sleep(0.2)
                assert read < 200_000
                client = await DaemonClient.connect(host, port)
                try:
                    pong = await asyncio.wait_for(client.round_trip({"op": "ping"}), 1.0)
                finally:
                    await client.close()
            finally:
                sender.cancel()
                stalled.close()
            return pong

        pong = run(_with_daemon(daemon, body))
        assert pong == {"op": "pong", "version": PROTOCOL_VERSION}
        assert daemon.stats.internal_errors == 0


class TestProtocolRejections:
    @pytest.mark.parametrize("size", [100_000, 1_000_000])
    def test_oversized_line_gets_one_error_then_a_clean_close(self, daemon_factory, size):
        daemon, _ = daemon_factory()

        async def body(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op": "ping", "pad": "' + b"x" * size + b'"}\n')
            await writer.drain()
            reply = json.loads(await reader.readline())
            rest = await reader.read()  # EOF, not a reset
            writer.close()
            await writer.wait_closed()
            client = await DaemonClient.connect(host, port)
            try:
                pong = await client.round_trip({"op": "ping"})
            finally:
                await client.close()
            return reply, rest, pong

        reply, rest, pong = run(_with_daemon(daemon, body))
        assert reply["status"] == "error" and reply["id"] == "?"
        assert "exceeds" in reply["detail"]
        assert rest == b""
        assert pong == {"op": "pong", "version": PROTOCOL_VERSION}
        assert daemon.stats.protocol_errors == 1

    def test_malformed_and_mismatched_lines_get_typed_errors(self, daemon_factory):
        daemon, _ = daemon_factory()

        async def body(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            replies = []
            lines = [
                b"{broken json\n",
                b'{"id": "v", "kind": "point", "start": 0, "end": 0, "version": 99}\n',
                b'{"id": "k", "kind": "median", "start": 0, "end": 0, "version": 1}\n',
                b'{"id": "f", "kind": "point", "start": 0, "end": 0, "version": 1, "extra": 1}\n',
                b'{"op": "teleport", "id": "o"}\n',
                b'{"op": "teleport", "id": [1]}\n',
            ]
            for line in lines:
                writer.write(line)
                await writer.drain()
                replies.append(json.loads(await reader.readline()))
            # The daemon survived every malformed line on the same connection.
            writer.write((QueryRequest.point("fine", 2).to_json() + "\n").encode())
            await writer.drain()
            replies.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            return replies

        replies = run(_with_daemon(daemon, body))
        broken, mismatch, kind, extra, op, bad_id, fine = replies
        assert broken["status"] == "error" and broken["id"] == "?"
        assert mismatch["status"] == "error" and "version" in mismatch["detail"]
        assert mismatch["id"] == "v"
        assert kind["status"] == "error" and "kind" in kind["detail"]
        assert extra["status"] == "error" and "unknown request field" in extra["detail"]
        assert op["status"] == "error" and "unknown op" in op["detail"]
        assert bad_id["status"] == "error" and bad_id["id"] == "?"
        assert fine["status"] == "ok"
        assert daemon.stats.version_rejections == 1
        assert daemon.stats.protocol_errors >= 3

    def test_unknown_target_and_out_of_domain_are_rejected_per_query(
        self, daemon_factory
    ):
        daemon, _ = daemon_factory()

        async def body(host, port):
            client = await DaemonClient.connect(host, port)
            try:
                missing = await client.query(
                    QueryRequest.point("m", 1, target="nope")
                )
                beyond = await client.query(
                    QueryRequest.range_sum("b", 0, DOMAIN + 5)
                )
                fine = await client.query(QueryRequest.point("ok", 1))
            finally:
                await client.close()
            assert missing.status == "error" and "unknown target" in missing.detail
            assert beyond.status == "error" and "covers" in beyond.detail
            assert fine.ok

        run(_with_daemon(daemon, body))
        assert daemon.stats.invalid_queries == 2

    def test_remote_shutdown_is_gated(self, daemon_factory):
        daemon, _ = daemon_factory()

        async def body(host, port):
            client = await DaemonClient.connect(host, port)
            try:
                refusal = await client.round_trip({"op": "shutdown"})
            finally:
                await client.close()
            assert refusal["status"] == "error"
            assert "disabled" in refusal["detail"]

        run(_with_daemon(daemon, body))

    def test_remote_shutdown_drains_when_allowed(self, daemon_factory):
        daemon, _ = daemon_factory(
            config=DaemonConfig(allow_remote_shutdown=True)
        )

        async def body():
            host, port = await daemon.start(port=0)
            client = await DaemonClient.connect(host, port)
            try:
                await client.query(QueryRequest.point("q", 1))
                ack = await client.round_trip({"op": "shutdown"})
            finally:
                await client.close()
            assert ack == {"op": "shutdown", "version": PROTOCOL_VERSION,
                           "status": "draining"}
            await asyncio.wait_for(daemon.serve_until_stopped(), timeout=10.0)
            with pytest.raises(ConnectionRefusedError):
                await asyncio.open_connection(host, port)

        run(body())
        assert daemon.stats.queries_answered == 1


class TestDegradationLadder:
    def test_evicted_engine_is_rebuilt_from_the_store(self, daemon_factory):
        daemon, store = daemon_factory(config=DaemonConfig(max_engines=1))

        async def body(host, port):
            client = await DaemonClient.connect(host, port)
            try:
                # Warm-up cached "wave" last; querying "default" evicts it,
                # then querying "wave" again must re-resolve via the store.
                first = await client.query(QueryRequest.point("a", 1))
                second = await client.query(QueryRequest.point("b", 1, target="wave"))
            finally:
                await client.close()
            assert first.ok and second.ok

        run(_with_daemon(daemon, body))
        assert daemon.stats.engine_evictions >= 2
        assert daemon.stats.engine_store_resolutions >= 1

    def test_store_miss_without_build_on_miss_is_unavailable(self, daemon_factory):
        daemon, store = daemon_factory(config=DaemonConfig(max_engines=1))

        async def body(host, port):
            client = await DaemonClient.connect(host, port)
            try:
                # Evict "wave" from the engine cache and erase every copy of
                # it: the bottom of the ladder is an explicit rejection, not
                # a blocking rebuild.
                await client.query(QueryRequest.point("a", 1))
                store.clear_memory()
                store.clear_disk()
                rejected = await client.query(QueryRequest.point("b", 1, target="wave"))
                alive = await client.query(QueryRequest.point("c", 1))
            finally:
                await client.close()
            assert rejected.status == "unavailable"
            assert "build_on_miss" in rejected.detail
            assert alive.ok

        run(_with_daemon(daemon, body))
        assert daemon.stats.unavailable == 1

    def test_build_on_miss_rebuilds_instead(self, daemon_factory):
        daemon, store = daemon_factory(
            config=DaemonConfig(max_engines=1, build_on_miss=True)
        )

        async def body(host, port):
            client = await DaemonClient.connect(host, port)
            try:
                await client.query(QueryRequest.point("a", 1))
                store.clear_memory()
                store.clear_disk()
                rebuilt = await client.query(QueryRequest.point("b", 1, target="wave"))
            finally:
                await client.close()
            assert rebuilt.ok

        run(_with_daemon(daemon, body))
        assert daemon.stats.engine_builds == 1
        assert daemon.stats.unavailable == 0


class TestDeterminism:
    def test_stream_rng_is_reproducible_and_streams_are_independent(self):
        a = stream_rng(7, 3).random(8)
        b = stream_rng(7, 3).random(8)
        other = stream_rng(7, 4).random(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, other)

    def test_generate_query_mix_streams_reproduce_bit_identically(self):
        one = generate_query_mix(DOMAIN, 50, seed=9, stream=2)
        two = generate_query_mix(DOMAIN, 50, seed=9, stream=2)
        sibling = generate_query_mix(DOMAIN, 50, seed=9, stream=3)
        assert one.as_tuples() == two.as_tuples()
        assert one.as_tuples() != sibling.as_tuples()

    def test_stream_none_matches_the_legacy_single_stream(self):
        legacy = generate_query_mix(DOMAIN, 50, seed=9)
        again = generate_query_mix(DOMAIN, 50, seed=9, stream=None)
        assert legacy.as_tuples() == again.as_tuples()


class TestTelemetryIntegration:
    """The wire ``metrics`` op and the structured slow-query log."""

    REQUIRED_FAMILIES = (
        "repro_daemon_connections_total",
        "repro_daemon_requests_total",
        "repro_daemon_queries_answered_total",
        "repro_daemon_engine_batches_total",
        "repro_daemon_batch_size",
        "repro_daemon_flush_latency_ms",
        "repro_daemon_admission_rejections_total",
        "repro_daemon_ladder_total",
        "repro_daemon_engine_evictions_total",
        "repro_daemon_pending_queries",
        "repro_daemon_slow_queries_total",
        "repro_daemon_errors_total",
        "repro_daemon_coalesced_queries_total",
        "repro_daemon_largest_batch",
        "repro_daemon_drained_queries_total",
        "repro_engine_batch_latency_ms",
        "repro_store_builds_total",
        "repro_store_memory_hits_total",
        "repro_span_total",
        "repro_span_wall_seconds_total",
    )

    def test_metrics_op_exposes_parseable_families(self, daemon_factory):
        from repro.service import OP_METRICS
        from repro.telemetry import CONTENT_TYPE, parse_prometheus_text

        daemon, _ = daemon_factory()

        async def body(host, port):
            client = await DaemonClient.connect(host, port)
            try:
                for position in range(6):
                    await client.query(QueryRequest.point(f"q{position}", position))
                return await client.round_trip({"op": OP_METRICS})
            finally:
                await client.close()

        reply = run(_with_daemon(daemon, body))
        assert reply["op"] == OP_METRICS
        assert reply["version"] == PROTOCOL_VERSION
        assert reply["content_type"] == CONTENT_TYPE
        families = parse_prometheus_text(reply["body"])
        # The acceptance bar: at least 12 families, strictly parseable.
        assert len(families) >= 12
        for name in self.REQUIRED_FAMILIES:
            assert name in families, f"family {name} missing from the scrape"
        samples = {
            (name, tuple(labels.items())): value
            for family in families.values()
            for name, labels, value in family.samples
        }
        # One connection sent six queries, one at a time, then this scrape.
        assert samples[("repro_daemon_connections_total", ())] == 1
        assert samples[("repro_daemon_queries_answered_total", ())] == 6
        assert samples[("repro_daemon_engine_batches_total", ())] == 6
        assert samples[("repro_daemon_largest_batch", ())] == 1
        assert samples[("repro_daemon_requests_total", (("op", "query"),))] == 6
        assert samples[("repro_daemon_requests_total", (("op", "metrics"),))] == 1
        # The warmed engines answered from cache.
        assert samples[("repro_daemon_ladder_total", (("rung", "hot"),))] == 6
        assert samples[("repro_daemon_errors_total", (("cause", "protocol"),))] == 0

    def test_build_spans_reach_the_metric_families(self, daemon_factory):
        """Warming the daemon's targets runs real builds under the global
        telemetry flag, so per-stage span families carry build stages."""
        from repro.service import OP_METRICS
        from repro.telemetry import parse_prometheus_text

        daemon, _ = daemon_factory()

        async def body(host, port):
            client = await DaemonClient.connect(host, port)
            try:
                return await client.round_trip({"op": OP_METRICS})
            finally:
                await client.close()

        reply = run(_with_daemon(daemon, body))
        families = parse_prometheus_text(reply["body"])
        spans = {
            labels["span"]
            for _, labels, _ in families["repro_span_total"].samples
        }
        assert {"build.synopsis", "store.get_or_build", "store.build"} <= spans

    def test_slow_query_log_carries_the_span_tree(self, daemon_factory, caplog):
        daemon, _ = daemon_factory(
            config=DaemonConfig(window_ms=1.0, slow_query_ms=0.0)
        )

        async def body(host, port):
            client = await DaemonClient.connect(host, port)
            try:
                response = await client.query(QueryRequest.point("slow", 5))
                assert response.ok
            finally:
                await client.close()

        with caplog.at_level("WARNING", logger="repro.daemon.slow_query"):
            run(_with_daemon(daemon, body))
        records = [
            record for record in caplog.records
            if record.getMessage() == "daemon.slow_query"
        ]
        assert records, "a 0ms threshold must flag every flush"
        fields = records[0].event_fields
        assert fields["target"] == "default"
        assert fields["batch"] >= 1
        assert fields["rung"] == "hot"
        assert fields["wall_ms"] >= 0.0
        assert fields["threshold_ms"] == 0.0
        assert fields["queries"][0]["id"] == "slow"
        trees = fields["spans"]
        assert [tree["name"] for tree in trees] == ["daemon.flush"]
        children = {child["name"] for child in trees[0]["children"]}
        assert {"daemon.resolve_engine", "daemon.answer"} <= children
        json.dumps(fields)  # the record is one JSON-safe object

    def test_no_slow_query_log_without_a_threshold(self, daemon_factory, caplog):
        daemon, _ = daemon_factory(config=DaemonConfig(window_ms=1.0))

        async def body(host, port):
            client = await DaemonClient.connect(host, port)
            try:
                await client.query(QueryRequest.point("fast", 5))
            finally:
                await client.close()

        with caplog.at_level("WARNING", logger="repro.daemon.slow_query"):
            run(_with_daemon(daemon, body))
        assert not [
            record for record in caplog.records
            if record.getMessage() == "daemon.slow_query"
        ]

    def test_lifecycle_events_are_logged(self, daemon_factory, caplog):
        daemon, _ = daemon_factory()

        async def body(host, port):
            client = await DaemonClient.connect(host, port)
            try:
                await client.query(QueryRequest.point("q", 1))
            finally:
                await client.close()

        with caplog.at_level("INFO", logger="repro.daemon"):
            run(_with_daemon(daemon, body))
        events = [record.getMessage() for record in caplog.records]
        assert "daemon.listen" in events
        assert "daemon.drain" in events
        assert "daemon.shutdown" in events
        listen = next(
            record for record in caplog.records
            if record.getMessage() == "daemon.listen"
        )
        assert listen.event_fields["targets"] == ["default", "wave"]
