"""End-to-end CLI coverage: experiments, serve-build and query on tiny data."""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main
from repro.core.spec import SynopsisSpec
from repro.io import read_model, synopsis_to_dict
from repro.io.binary_format import SynopsisPack
from repro.service import (
    BatchQueryEngine,
    DaemonClient,
    QueryRequest,
    SynopsisStore,
    generate_query_mix,
)


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    assert main(["generate", "--dataset", "sensors", "--domain-size", "48",
                 "--seed", "3", "--output", str(path)]) == 0
    return path


class TestExperimentCommands:
    @pytest.mark.parametrize("metric", ["sse", "sae"])
    def test_figure2_metrics(self, metric, capsys):
        assert main(["experiment", "figure2", "--dataset", "movies", "--domain-size", "24",
                     "--metric", metric, "--budgets", "2", "4", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "expectation" in out

    @pytest.mark.parametrize("metric", ["sse", "sae"])
    def test_figure4_metrics(self, metric, capsys):
        assert main(["experiment", "figure4", "--dataset", "tpch", "--domain-size", "32",
                     "--metric", metric, "--budgets", "2", "4", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "probabilistic" in out
        # Non-SSE metrics grow the restricted-DP curve next to the greedy ones.
        assert (f"dp_{metric}" in out) == (metric != "sse")


class TestServeBuild:
    def test_build_then_cache_hit(self, model_path, tmp_path, capsys):
        store = tmp_path / "store"
        base = ["serve-build", "--input", str(model_path), "--store", str(store),
                "--budget", "6", "--metric", "sae"]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert "fresh build" in first and "expected SAE" in first

        assert main(base) == 0
        second = capsys.readouterr().out
        assert "from cache" in second and "1 disk hits" in second
        assert len(SynopsisPack(store)) == 1

    def test_store_entry_is_valid_synopsis_json(self, model_path, tmp_path):
        store = tmp_path / "store"
        assert main(["serve-build", "--input", str(model_path), "--store", str(store),
                     "--budget", "5", "--synopsis", "wavelet"]) == 0
        pack = SynopsisPack(store)
        (key,) = pack.keys()
        synopsis, config = pack.get(key)
        assert config["synopsis"] == "wavelet"
        assert synopsis_to_dict(synopsis)["synopsis"] == "wavelet"

    def test_distinct_budgets_create_distinct_entries(self, model_path, tmp_path):
        store = tmp_path / "store"
        for budget in ("4", "8"):
            assert main(["serve-build", "--input", str(model_path), "--store", str(store),
                         "--budget", budget]) == 0
        assert len(SynopsisPack(store)) == 2

    def test_spec_file_replaces_flags_and_shares_cache(self, model_path, tmp_path, capsys):
        # A serialized SynopsisSpec must hit the cache entry the equivalent
        # flag invocation created: both derive the same canonical key.
        store = tmp_path / "store"
        assert main(["serve-build", "--input", str(model_path), "--store", str(store),
                     "--budget", "6", "--metric", "sae"]) == 0
        capsys.readouterr()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "histogram", "budget": 6, "metric": "sae"}))
        assert main(["serve-build", "--input", str(model_path), "--store", str(store),
                     "--spec", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "from cache" in out and "expected SAE" in out
        assert len(SynopsisPack(store)) == 1

    def test_missing_budget_and_spec_is_an_error(self, model_path, tmp_path, capsys):
        assert main(["serve-build", "--input", str(model_path),
                     "--store", str(tmp_path / "s")]) == 2
        assert "--budget" in capsys.readouterr().err

    def test_spec_file_rejects_conflicting_flags(self, model_path, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "histogram", "budget": 6, "metric": "sse"}))
        assert main(["serve-build", "--input", str(model_path), "--store", str(tmp_path / "s"),
                     "--spec", str(spec_path), "--metric", "sae"]) == 2
        assert "--metric" in capsys.readouterr().err

    def test_sweep_spec_file_needs_a_budget_selection(self, model_path, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "histogram", "budget": [4, 8]}))
        assert main(["serve-build", "--input", str(model_path), "--store", str(tmp_path / "s"),
                     "--spec", str(spec_path)]) == 2
        assert "budget sweep" in capsys.readouterr().err
        # --budget must pick one of the declared budgets, not invent a new one.
        assert main(["serve-build", "--input", str(model_path), "--store", str(tmp_path / "s"),
                     "--spec", str(spec_path), "--budget", "7"]) == 2
        assert "not declared by the spec" in capsys.readouterr().err
        # Narrowed with --budget, the same sweep spec serves cleanly.
        assert main(["serve-build", "--input", str(model_path), "--store", str(tmp_path / "s"),
                     "--spec", str(spec_path), "--budget", "8"]) == 0


class TestQuery:
    def test_explicit_queries_with_error_attribution(self, model_path, tmp_path, capsys):
        assert main(["query", "--input", str(model_path), "--store", str(tmp_path / "s"),
                     "--budget", "6", "--metric", "sae",
                     "--point", "3", "--range", "0:15", "--avg", "8:23"]) == 0
        out = capsys.readouterr().out
        assert "expected error" in out
        assert "point[3]" in out
        assert "range_sum[0:15]" in out
        assert "range_avg[8:23]" in out

    def test_wavelet_queries(self, model_path, tmp_path, capsys):
        assert main(["query", "--input", str(model_path), "--store", str(tmp_path / "s"),
                     "--budget", "5", "--synopsis", "wavelet",
                     "--point", "0", "--range", "0:47"]) == 0
        out = capsys.readouterr().out
        assert "point[0]" in out and "range_sum[0:47]" in out

    def test_replay_reports_throughput(self, model_path, tmp_path, capsys):
        assert main(["query", "--input", str(model_path), "--store", str(tmp_path / "s"),
                     "--budget", "6", "--replay", "500", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "replayed 500 queries" in out and "queries/s" in out

    def test_replay_with_explicit_queries_is_an_error(self, model_path, tmp_path, capsys):
        assert main(["query", "--input", str(model_path), "--store", str(tmp_path / "s"),
                     "--budget", "6", "--point", "3", "--replay", "100"]) == 2
        assert "--replay" in capsys.readouterr().err

    def test_no_queries_is_an_error(self, model_path, tmp_path, capsys):
        assert main(["query", "--input", str(model_path), "--store", str(tmp_path / "s"),
                     "--budget", "6"]) == 2
        assert "no queries given" in capsys.readouterr().err

    def test_malformed_range_is_an_error(self, model_path, tmp_path, capsys):
        assert main(["query", "--input", str(model_path), "--store", str(tmp_path / "s"),
                     "--budget", "6", "--range", "nonsense"]) == 2
        assert "START:END" in capsys.readouterr().err

    def test_json_emits_wire_schema_responses(self, model_path, tmp_path, capsys):
        from repro.service import QueryResponse

        assert main(["query", "--input", str(model_path), "--store", str(tmp_path / "s"),
                     "--budget", "6", "--point", "3", "--range", "0:15",
                     "--json", "--stats"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        responses = [QueryResponse.from_json(line) for line in lines[:2]]
        assert [response.id for response in responses] == ["q0", "q1"]
        assert all(response.ok for response in responses)
        assert all(response.expected_error is not None for response in responses)
        stats = json.loads(lines[2])
        assert stats["op"] == "stats" and stats["store"]["builds"] == 1

    def test_json_replay_report(self, model_path, tmp_path, capsys):
        assert main(["query", "--input", str(model_path), "--store", str(tmp_path / "s"),
                     "--budget", "6", "--replay", "300", "--seed", "5", "--json"]) == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert report["queries"] == 300
        assert report["seed"] == 5
        assert set(report["latency_ms"]) == {"p50", "p95", "p99", "max"}
        assert report["qps"] > 0

    def test_inverted_range_is_a_protocol_error(self, model_path, tmp_path, capsys):
        assert main(["query", "--input", str(model_path), "--store", str(tmp_path / "s"),
                     "--budget", "6", "--range", "9:2"]) == 2
        assert "invalid query range" in capsys.readouterr().err


def _start_serve_thread(serve_args, ready):
    """Run ``main(serve_args)`` on a thread; returns it once ``ready`` names
    the bound ``host:port``."""
    server = threading.Thread(target=main, args=(serve_args,), daemon=True)
    server.start()
    _wait_for_address(ready)
    return server


def _wait_for_address(ready):
    deadline = time.monotonic() + 30.0
    while not (ready.exists() and ready.read_text()) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert ready.exists() and ready.read_text(), "the daemon never wrote its ready file"
    host, _, port = ready.read_text().rpartition(":")
    return host, int(port)


def _over_the_wire(ready, talk):
    """Run ``talk(client)`` against the daemon ``ready`` names; its result."""
    host, port = _wait_for_address(ready)

    async def session():
        client = await DaemonClient.connect(host, port)
        try:
            return await talk(client)
        finally:
            await client.close()

    return asyncio.run(session())


def _remote_shutdown(ready):
    """Stop a daemon started with --allow-remote-shutdown (the wire op)."""
    ack = _over_the_wire(ready, lambda client: client.round_trip({"op": "shutdown"}))
    assert ack["status"] == "draining"


class TestServe:
    def test_serve_round_trip(self, model_path, tmp_path, capsys):
        store = tmp_path / "store"
        ready = tmp_path / "ready.txt"
        serve_args = ["serve", "--input", str(model_path), "--store", str(store),
                      "--budget", "6", "--port", "0", "--ready-file", str(ready),
                      "--allow-remote-shutdown", "--also-budget", "10"]
        server = _start_serve_thread(serve_args, ready)

        batch = generate_query_mix(48, 30, seed=3)
        requests = [
            QueryRequest(id=f"v-{position}", kind=kind, start=start, end=end, target="b10")
            for position, (kind, start, end) in enumerate(batch.as_tuples())
        ]

        async def ask(client):
            return [await client.query(request) for request in requests]

        responses = _over_the_wire(ready, ask)
        _remote_shutdown(ready)
        server.join(timeout=30.0)
        assert not server.is_alive()
        assert "daemon drained and stopped: 30 queries answered" in capsys.readouterr().out

        # The daemon's answers are the ones a local engine over the same
        # store computes, bit for bit.
        model = read_model(model_path)
        spec = SynopsisSpec(kind="histogram", budget=10)
        synopsis = SynopsisStore(store).get_or_build(model, spec)
        engine = BatchQueryEngine.from_model(synopsis, model, spec.metric)
        assert all(response.ok for response in responses)
        assert np.array_equal([r.answer for r in responses], engine.answer(batch))
        assert np.array_equal(
            [r.expected_error for r in responses], engine.attribute_errors(batch)
        )

    def test_sigterm_drains_and_exits_cleanly(self, model_path, tmp_path):
        ready = tmp_path / "ready.txt"
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(repro.__file__).parents[1]), environment.get("PYTHONPATH")])
        )
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--input", str(model_path),
             "--store", str(tmp_path / "store"), "--budget", "6", "--port", "0",
             "--ready-file", str(ready), "--log-level", "warning"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=environment,
        )
        try:
            reply = _over_the_wire(ready, lambda client: client.query(QueryRequest.point("q", 3)))
            assert reply.ok
            daemon.send_signal(signal.SIGTERM)
            out, err = daemon.communicate(timeout=30.0)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()
        assert daemon.returncode == 0, err
        assert "daemon drained and stopped: 1 queries answered" in out

    def test_serve_requires_input_and_store(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--store", "s"])
        assert exited.value.code == 2
        assert "--input" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--input", "m.json"])
        assert exited.value.code == 2
        assert "--store" in capsys.readouterr().err

    def test_serve_defaults_are_the_daemon_config_defaults(self):
        from repro.cli import _daemon_config
        from repro.service import DaemonConfig

        args = build_parser().parse_args(["serve", "--input", "m.json", "--store", "s"])
        assert _daemon_config(args) == DaemonConfig()

    @pytest.mark.parametrize(
        "flag", ["--window-ms=1", "--max-batch=4", "--max-engines=2", "--build-on-miss"]
    )
    def test_removed_daemon_flags_are_refused(self, flag, capsys):
        # Each target keeps one engine and every batch flushes on the next
        # loop turn, so these knobs are gone; a script still passing one fails.
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--input", "m.json", "--store", "s", flag])
        assert exited.value.code == 2
        assert flag in capsys.readouterr().err


class TestTelemetryCommand:
    def test_serve_then_scrape_validates_and_writes_the_exposition(
        self, model_path, tmp_path, capsys
    ):
        from repro.telemetry import parse_prometheus_text

        store = tmp_path / "store"
        ready = tmp_path / "ready.txt"
        scrape = tmp_path / "metrics.prom"
        serve_args = ["serve", "--input", str(model_path), "--store", str(store),
                      "--budget", "6", "--port", "0", "--ready-file", str(ready),
                      "--allow-remote-shutdown", "--log-level", "warning",
                      "--slow-query-ms", "250"]
        server = _start_serve_thread(serve_args, ready)

        assert main(["telemetry", "--connect", ready.read_text(),
                     "--min-families", "12",
                     "--require", "repro_daemon_queries_answered_total",
                     "--require", "repro_store_builds_total",
                     "--output", str(scrape)]) == 0
        out = capsys.readouterr().out
        assert "metric families" in out
        assert f"wrote {scrape}" in out

        # The written scrape is strict Prometheus v0.0.4 text.
        families = parse_prometheus_text(scrape.read_text())
        assert len(families) >= 12
        assert "repro_daemon_queries_answered_total" in families

        _remote_shutdown(ready)
        server.join(timeout=30.0)
        assert not server.is_alive()

    def test_missing_required_family_is_an_error(self, model_path, tmp_path, capsys):
        store = tmp_path / "store"
        ready = tmp_path / "ready.txt"
        serve_args = ["serve", "--input", str(model_path), "--store", str(store),
                      "--budget", "6", "--port", "0", "--ready-file", str(ready),
                      "--allow-remote-shutdown"]
        server = _start_serve_thread(serve_args, ready)
        try:
            assert main(["telemetry", "--connect", ready.read_text(),
                         "--require", "not_a_real_family_total"]) == 2
            assert "not_a_real_family_total" in capsys.readouterr().err
        finally:
            _remote_shutdown(ready)
            server.join(timeout=30.0)

    def test_scrape_without_daemon_is_an_error(self, capsys):
        assert main(["telemetry", "--connect", "127.0.0.1:9"]) == 2
        assert "no daemon is listening" in capsys.readouterr().err

    def test_bad_connect_is_an_error(self, capsys):
        assert main(["telemetry", "--connect", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err


class TestColumnarStoreCli:
    def test_serve_build_and_query_round_trip(self, model_path, tmp_path, capsys):
        store = tmp_path / "pack"
        base = ["--input", str(model_path), "--store", str(store),
                "--budget", "6", "--metric", "sae", "--store-format", "columnar"]
        assert main(["serve-build", *base]) == 0
        assert "fresh build" in capsys.readouterr().out
        assert (store / "synopses.pack").exists()
        assert not list(store.glob("*.json"))

        assert main(["query", *base, "--point", "3", "--range", "0:15"]) == 0
        out = capsys.readouterr().out
        assert "point[3]" in out and "range_sum[0:15]" in out

    def test_query_stats_reports_backend_counters(self, model_path, tmp_path, capsys):
        store = tmp_path / "pack"
        base = ["query", "--input", str(model_path), "--store", str(store),
                "--budget", "6", "--store-format", "columnar", "--point", "3"]
        assert main(base + ["--stats"]) == 0
        first = capsys.readouterr().out
        assert "store stats:" in first and "1 builds" in first

        assert main(base + ["--stats"]) == 0  # a fresh process: disk hit
        second = capsys.readouterr().out
        assert "1 disk hits" in second and "columnar=1" in second

    def test_store_inspect_lists_the_header_index(self, model_path, tmp_path, capsys):
        store = tmp_path / "pack"
        assert main(["serve-build", "--input", str(model_path), "--store", str(store),
                     "--budget", "6", "--store-format", "columnar"]) == 0
        capsys.readouterr()
        assert main(["store", "inspect", "--store", str(store), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "columnar store" in out and "1 entries" in out
        assert "kind=histogram" in out and "crc ok" in out
        for column in ("starts", "ends", "representatives"):
            assert column in out

    def test_store_inspect_json_fallback(self, tmp_path, capsys):
        # There is no JSON listing any more: a directory of retired
        # <key>.json entries is reported as holding no pack, nothing is
        # listed, and inspecting it writes nothing into it.
        store = tmp_path / "json"
        store.mkdir()
        entry = f"{'0' * 64}.json"
        (store / entry).write_text("{}")
        assert main(["store", "inspect", "--store", str(store)]) == 2
        captured = capsys.readouterr()
        assert "no columnar pack store" in captured.err
        assert captured.out == ""
        assert [path.name for path in store.iterdir()] == [entry]
        with pytest.raises(SystemExit):
            main(["store", "inspect", "--store", str(store), "--format", "json"])

    def test_store_inspect_missing_directory_is_an_error(self, tmp_path, capsys):
        assert main(["store", "inspect", "--store", str(tmp_path / "absent")]) == 2
        assert "no store directory" in capsys.readouterr().err

    def test_format_mismatch_is_an_error(self, model_path, tmp_path, capsys):
        # A retired JSON store (<key>.json entries, no pack) is refused, by
        # the serving commands and by store inspect alike.
        store = tmp_path / "legacy"
        store.mkdir()
        (store / f"{'0' * 64}.json").write_text("{}")
        assert main(["serve-build", "--input", str(model_path), "--store", str(store),
                     "--budget", "6"]) == 2
        assert "JSON store" in capsys.readouterr().err
        assert main(["store", "inspect", "--store", str(store)]) == 2
        assert "no columnar pack store" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["serve-build", "--input", str(model_path), "--store", str(store),
                  "--budget", "6", "--store-format", "json"])


class TestParser:
    def test_parser_lists_serving_subcommands(self):
        text = build_parser().format_help()
        for command in ("serve-build", "query", "serve", "telemetry", "store"):
            assert command in text

    def test_store_format_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve-build", "--input", "m", "--store", "s",
                 "--budget", "4", "--store-format", "parquet"]
            )
