"""serve-sparse and serve-saturate: the daemon over its wire protocol.

The benchmark pre-builds one columnar store entry, then (re)launches the
daemon over it with ``DaemonConfig`` defaults, so later changes to the
defaults show.  The target is the configuration behind ``BENCH_service``: a
zipf value-pdf (n=1024, skew 1.1, uncertainty 0.4) under an SSE histogram
with B=32, queried by a point/range-sum/range-avg mix of 0.5/0.3/0.2 with
mean range length 16.
"""

from __future__ import annotations

import gc
import json
import math
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from awake import cpus_awake
from client import Connection, closed_loop, drain, match, open_loop
from daemon import Daemon
from measure import (SETUP_LAUNCHES, Accounting, peak_rss_mb, percentile, poisson_schedule,
                     sliced_percentile)
from tracer import delta

HERE = Path(__file__).resolve().parent
DOMAIN_SIZE = 1024
BUDGET = 32
MIX = (0.5, 0.3, 0.2)
MEAN_RANGE_LENGTH = 16
#: Leading seconds of every run whose requests are not timed.
WARMUP_SECONDS = 2.0
#: How long stragglers may take after the run before they count as lost.
DRAIN_SECONDS = 5.0
#: serve-sparse: offered Poisson rate on one connection.
SPARSE_RATE = 200.0
#: serve-saturate: connections, and requests kept outstanding on each.
SATURATE_CONNECTIONS = 2
SATURATE_DEPTH = 16
#: serve-saturate request streams are this long per connection, then cycle.
STREAM_LENGTH = 1 << 15
#: ``latency_p95_ms`` is the 10th percentile, over half-second slices of the
#: measured window, of each slice's p95 (see ``measure.sliced_percentile``).
#: On a shared host, CPU steal comes in bursts that hit most slices of some
#: runs and almost none of others; the p95 of the whole run then follows the
#: neighbours (3.9 to 12 ms over eight runs of one build) while p50 holds.
SLICE_SECONDS = 0.5
QUIET_SLICES = 10.0
#: Traced runs alternate an untraced and a traced daemon over this many
#: slices, short enough that both see the same phases of the host.
TRACE_SLICES = 24


def prepare(work: Path, seed: int) -> Dict[str, Any]:
    """Model file and pre-built store the daemon restarts over."""
    from repro.core.spec import SynopsisSpec
    from repro.datasets import zipf_value_pdf
    from repro.io import read_model, write_model
    from repro.service import SynopsisStore

    spec = SynopsisSpec(kind="histogram", budget=BUDGET, metric="sse")
    model_path = write_model(
        zipf_value_pdf(DOMAIN_SIZE, skew=1.1, uncertainty=0.4, seed=seed), work / "model.json"
    )
    # Build from the model as the daemon will read it, so its warm-up hits.
    model = read_model(model_path)
    SynopsisStore(work / "store", format="columnar").get_or_build(model, spec)
    return {"model_path": model_path, "store": work / "store", "model": model, "spec": spec}


def daemon_argv(prepared: Dict[str, Any], snapshot: Optional[Path] = None) -> List[str]:
    """``repro-synopses serve`` over the prepared store; under the tracer when
    ``snapshot`` names the file its stage totals go to."""
    flags = [
        "serve", "--input", str(prepared["model_path"]), "--store", str(prepared["store"]),
        "--store-format", "columnar", "--budget", str(BUDGET), "--metric", "sse", "--port", "0",
    ]
    if snapshot is None:
        return [sys.executable, "-m", "repro.cli", *flags]
    return [sys.executable, str(HERE / "traced_daemon.py"), str(snapshot), *flags]


def request_stream(seed: int, stream: int, count: int):
    """A seeded query batch and its pre-encoded wire lines (ids = positions)."""
    from repro.service import QueryRequest, generate_query_mix

    batch = generate_query_mix(
        DOMAIN_SIZE, count, mix=MIX, mean_range_length=MEAN_RANGE_LENGTH,
        seed=seed, stream=stream,
    )
    lines = [
        (QueryRequest(id=position, kind=kind, start=start, end=end).to_json() + "\n").encode()
        for position, (kind, start, end) in enumerate(batch.as_tuples())
    ]
    return batch, lines


def expected_answers(prepared: Dict[str, Any], batch) -> Tuple[np.ndarray, np.ndarray]:
    """A local engine over the same store entry, read through a fresh handle."""
    from repro.service import BatchQueryEngine, SynopsisStore

    store = SynopsisStore(prepared["store"], format="columnar")
    synopsis = store.get_or_build(prepared["model"], prepared["spec"])
    if store.stats.builds:
        raise RuntimeError("the pre-built store entry was not found")
    engine = BatchQueryEngine.from_model(synopsis, prepared["model"], prepared["spec"].metric)
    return engine.answer(batch), engine.attribute_errors(batch)


class Outcome:
    """Timed, checked outcomes of the requests sent in one measured window."""

    def __init__(self) -> None:
        self.accounting = Accounting()
        self.latencies_ms: List[float] = []
        self.origins: List[float] = []  # due (open loop) or send time of each latency
        self.round_trips_ms: List[float] = []
        self.last_completion = -math.inf
        self.mismatches: List[str] = []

    def add(self, connection: Connection, windows: Sequence[Tuple[float, float]],
            expected: Tuple[np.ndarray, np.ndarray], due: Sequence[float] = ()) -> None:
        """Account every send of ``connection`` whose time falls in a window.

        ``windows`` are ``[start, stop)`` intervals.  Open-loop sends are
        selected and timed by their due time (``due``), closed-loop sends by
        their send time.
        """
        answers, errors = expected
        received, payloads = match(connection)
        for index, sent in enumerate(connection.sent):
            origin = due[index] if due else sent
            if not any(start <= origin < stop for start, stop in windows):
                continue
            payload = payloads[index]
            status = "lost" if payload is None else payload.get("status", "error")
            self.accounting.record(status)
            self.origins.append(origin)
            if status != "ok":
                self.latencies_ms.append(math.inf)
                continue
            position = connection.ids[index]
            if (payload.get("answer") != answers[position]
                    or payload.get("expected_error") != errors[position]):
                self.mismatches.append(
                    f"id {position}: got {payload}, expected answer {answers[position]!r} "
                    f"expected_error {errors[position]!r}"
                )
            self.latencies_ms.append(1000.0 * (received[index] - origin))
            self.round_trips_ms.append(1000.0 * (received[index] - sent))
            self.last_completion = max(self.last_completion, received[index])

    def tail_ms(self, start: float) -> float:
        """p95 latency in the quiet slices of the run that began at ``start``."""
        return sliced_percentile(self.origins, self.latencies_ms, 95, start, SLICE_SECONDS,
                                 QUIET_SLICES)

    def throughput(self, start: float) -> float:
        span = self.last_completion - start
        return self.accounting.ok / span if span > 0 else 0.0


def launch_for_setup(argv: List[str], env: Dict[str, str], log: Path) -> Tuple[Daemon, List[float]]:
    """Launch the daemon ``SETUP_LAUNCHES`` times; keep the last one running."""
    setups = []
    for launch in range(SETUP_LAUNCHES):
        daemon = Daemon(argv, env, log)
        setups.append(daemon.setup_seconds)
        if launch < SETUP_LAUNCHES - 1:
            if daemon.stop() != 0:
                raise RuntimeError(f"daemon exited with {daemon.process.returncode}; see {log}")
    return daemon, setups


class Workload:
    """Drives one serve workload (``sparse`` or ``saturate``) against daemons."""

    def __init__(self, name: str, seed: int, prepared: Dict[str, Any]):
        self.seed = seed
        self.prepared = prepared
        self.sparse = name == "serve-sparse"
        self.connections_per_daemon = 1 if self.sparse else SATURATE_CONNECTIONS

    def streams(self, total_seconds: float):
        """Pre-encoded lines (and expected answers) per connection index."""
        if self.sparse:
            self.offsets = poisson_schedule(SPARSE_RATE, total_seconds, self.seed)
            counts = [len(self.offsets)]
        else:
            counts = [STREAM_LENGTH] * SATURATE_CONNECTIONS
        self.lines, self.expected = [], []
        for stream, count in enumerate(counts):
            batch, lines = request_stream(self.seed, stream, count)
            self.lines.append(lines)
            self.expected.append(expected_answers(self.prepared, batch))

    def drive(self, connections: Sequence[Connection], begin: float, until: float,
              state: Dict[str, Any]) -> None:
        """Offer load on ``connections`` from ``begin`` (absolute) to ``until``."""
        if self.sparse:
            offsets = self.offsets
            due = begin + offsets
            chosen = (due >= state.setdefault("cursor", begin)) & (due < until)
            first, last = np.flatnonzero(chosen)[[0, -1]] if chosen.any() else (0, -1)
            lines = self.lines[0][first:last + 1]
            times = due[first:last + 1].tolist()
            connection = connections[0]
            connection_due = state.setdefault(id(connection), [])
            connection_due.extend(times)
            open_loop(connection, lines, times, int(first))
            state["cursor"] = until
        else:
            positions = state.setdefault(id(connections[0]), [0] * len(connections))
            closed_loop(connections, self.lines, SATURATE_DEPTH, until, positions)

    def account(self, outcome: Outcome, connections: Sequence[Connection],
                windows: Sequence[Tuple[float, float]], state: Dict[str, Any]) -> None:
        for index, connection in enumerate(connections):
            due = state.get(id(connection), ()) if self.sparse else ()
            outcome.add(connection, windows, self.expected[index], due)


def untraced(workload: Workload, env: Dict[str, str], work: Path, seconds: float
             ) -> Dict[str, Any]:
    """The end-to-end run: one daemon, warm-up, then ``seconds`` measured."""
    workload.streams(WARMUP_SECONDS + seconds)
    daemon, setups = launch_for_setup(daemon_argv(workload.prepared), env, work / "daemon.log")
    connections = [Connection(daemon.address) for _ in range(workload.connections_per_daemon)]
    state: Dict[str, Any] = {}
    try:
        gc.collect()
        gc.freeze()
        with cpus_awake(env):
            begin = time.perf_counter()
            measure_from = begin + WARMUP_SECONDS
            workload.drive(connections, begin, measure_from, state)
            cpu_daemon = daemon.cpu_seconds()
            cpu_client = time.process_time()
            wall = time.perf_counter()
            end = measure_from + seconds
            workload.drive(connections, begin, end, state)
            drain(connections, time.perf_counter() + DRAIN_SECONDS)
            wall = time.perf_counter() - wall
            cpu_daemon = daemon.cpu_seconds() - cpu_daemon
            cpu_client = time.process_time() - cpu_client
        gc.unfreeze()
        stats = daemon.stats()
        peak_rss = peak_rss_mb(daemon.pid)
    finally:
        for connection in connections:
            connection.close()
        exit_code = daemon.stop()
    outcome = Outcome()
    workload.account(outcome, connections, [(measure_from, end)], state)
    record: Dict[str, Any] = {
        "setup_launches_s": setups,
        "daemon_exit": exit_code,
        "daemon_cpu_share": cpu_daemon / wall,
        "client_cpu_share": cpu_client / wall,
        "batch_size": stats["queries_answered"] / max(1, stats["engine_batches"]),
        "accounting": outcome.accounting.as_dict(),
        "mismatches": outcome.mismatches[:5],
        "round_trip_p50_ms": percentile(outcome.round_trips_ms, 50),
        "round_trip_p95_ms": percentile(outcome.round_trips_ms, 95),
        "whole_run_p95_ms": percentile(outcome.latencies_ms, 95),
    }
    valid = True
    if workload.sparse:
        due = state[id(connections[0])]
        sent = connections[0].sent
        lateness = [1000.0 * (sent[i] - due[i]) for i in range(len(due)) if due[i] >= measure_from]
        record["generator_lateness_p50_ms"] = percentile(lateness, 50)
        record["generator_lateness_p95_ms"] = percentile(lateness, 95)
        # The open loop is only an open loop while the generator idles.
        valid = record["client_cpu_share"] < record["daemon_cpu_share"]
    record["valid"] = valid
    correct = not outcome.mismatches and exit_code == 0 and valid
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "latency_p50_ms": (percentile(outcome.latencies_ms, 50), "ms"),
        "latency_p95_ms": (outcome.tail_ms(measure_from), "ms"),
        "throughput_per_s": (outcome.throughput(measure_from), "1/s"),
        "ok_share": (outcome.accounting.ok / max(1, outcome.accounting.attempted), "ratio"),
    }
    return {"metrics": metrics, "accounting": outcome.accounting, "correct": correct,
            "record": record}


def _snapshot(daemon: Daemon, path: Path, sequence: int) -> Dict[str, Any]:
    """Ask the traced daemon for its stage totals and wait for them."""
    daemon.process.send_signal(signal.SIGUSR1)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            snapshot = json.loads(path.read_text())
        except (FileNotFoundError, ValueError):
            snapshot = None
        if snapshot and snapshot["sequence"] >= sequence:
            return snapshot
        time.sleep(0.005)
    raise RuntimeError("the traced daemon did not write its snapshot")


def traced(workload: Workload, env: Dict[str, str], work: Path, seconds: float
           ) -> Dict[str, Any]:
    """The per-layer run: an untraced and a traced daemon, alternating slices."""
    workload.streams(WARMUP_SECONDS + seconds)
    snapshot_path = work / "trace.json"
    plain = Daemon(daemon_argv(workload.prepared), env, work / "daemon.log")
    timed = None
    try:
        timed = Daemon(daemon_argv(workload.prepared, snapshot_path), env, work / "traced.log")
        with cpus_awake(env):
            return _traced_slices(workload, plain, timed, snapshot_path, seconds)
    finally:
        codes = [daemon.stop() for daemon in (plain, timed) if daemon is not None]
        if any(codes):
            raise RuntimeError(f"a daemon exited with {codes}")


def _traced_slices(workload: Workload, plain: Daemon, timed: Daemon, snapshot_path: Path,
                   seconds: float) -> Dict[str, Any]:
    sides = []
    for daemon in (plain, timed):
        connections = [Connection(daemon.address)
                       for _ in range(workload.connections_per_daemon)]
        sides.append({"daemon": daemon, "connections": connections, "state": {},
                      "outcome": Outcome(), "cpu": 0.0, "windows": []})
    try:
        gc.collect()
        gc.freeze()
        begin = time.perf_counter()
        # Warm both daemons on the first seconds of the schedule.
        half = begin + WARMUP_SECONDS / 2
        for position, side in enumerate(sides):
            side["state"]["cursor"] = begin if position == 0 else half
            until = half if position == 0 else begin + WARMUP_SECONDS
            workload.drive(side["connections"], begin, until, side["state"])
            drain(side["connections"], time.perf_counter() + DRAIN_SECONDS)
        before = _snapshot(timed, snapshot_path, 1)
        stats_before = timed.stats()
        flush_before = timed.flush_ms_totals()
        cursor = begin + WARMUP_SECONDS
        slice_seconds = seconds / TRACE_SLICES
        for slice_no in range(TRACE_SLICES):
            side = sides[slice_no % 2]
            start = max(cursor, time.perf_counter())
            stop = start + slice_seconds
            side["state"]["cursor"] = start
            cpu = side["daemon"].cpu_seconds()
            workload.drive(side["connections"], begin, stop, side["state"])
            drain(side["connections"], time.perf_counter() + DRAIN_SECONDS)
            side["cpu"] += side["daemon"].cpu_seconds() - cpu
            side["windows"].append((start, stop))
            cursor = stop
        after = _snapshot(timed, snapshot_path, 2)
        stats_after = timed.stats()
        flush_after = timed.flush_ms_totals()
        gc.unfreeze()
    finally:
        for side in sides:
            for connection in side["connections"]:
                connection.close()
    for side in sides:
        workload.account(side["outcome"], side["connections"], side["windows"], side["state"])
    untraced_side, traced_side = sides
    outcome = traced_side["outcome"]
    queries = max(1, stats_after["queries_answered"] - stats_before["queries_answered"])
    batches = max(1, stats_after["engine_batches"] - stats_before["engine_batches"])
    stages = delta(after, before)["seconds"]

    def per_query_us(stage: str) -> float:
        return 1e6 * stages.get(f"{stage}|", 0.0) / queries

    def warmup_ms(stage: str) -> float:
        calls = before["calls"].get(f"{stage}|", 0)
        return 1000.0 * before["seconds"].get(f"{stage}|", 0.0) / calls if calls else 0.0

    layer = {
        "protocol.parse_us": per_query_us("protocol.parse"),
        "protocol.encode_us": per_query_us("protocol.encode"),
        "queries.batch_us": per_query_us("queries.batch"),
        "engine.answer_us": per_query_us("engine.answer"),
        "engine.attribute_us": per_query_us("engine.attribute"),
        "server.batch_size": queries / batches,
        "server.flush_ms": (flush_after[0] - flush_before[0])
        / max(1.0, flush_after[1] - flush_before[1]),
        "server.cpu_us": 1e6 * traced_side["cpu"] / queries,
        "store.load_ms": warmup_ms("store.load"),
        "evaluation.errors_ms": warmup_ms("evaluation.errors"),
    }
    layer["server.residual_cpu_us"] = layer["server.cpu_us"] - sum(
        layer[name] for name in ("protocol.parse_us", "protocol.encode_us", "queries.batch_us",
                                 "engine.answer_us", "engine.attribute_us")
    )
    mean_round_trip = statistics.fmean(outcome.round_trips_ms) if outcome.round_trips_ms else 0.0
    layer["server.wait_ms"] = mean_round_trip - layer["server.cpu_us"] / 1000.0
    # Operations per busy second of the daemon, traced against untraced.
    capacity = [side["outcome"].accounting.ok / side["cpu"] if side["cpu"] else 0.0
                for side in sides]
    layer["trace.overhead"] = 1.0 - capacity[1] / capacity[0] if capacity[0] else 0.0
    accounting = Accounting()
    for side in sides:
        for status, count in side["outcome"].accounting.counts.items():
            accounting.record(status, count)
    mismatches = untraced_side["outcome"].mismatches + outcome.mismatches
    record = {
        "queries_traced": queries,
        "capacity_per_cpu_s": capacity,
        "accounting": accounting.as_dict(),
        "mismatches": mismatches[:5],
    }
    return {"layer": layer, "accounting": accounting, "correct": not mismatches,
            "record": record}
