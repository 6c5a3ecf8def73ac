"""Command-line interface for building and evaluating probabilistic data synopses.

Installed as ``repro-synopses``.  Sub-commands:

``build-histogram``
    Build a B-bucket histogram of a model stored in the JSON interchange
    format (see :mod:`repro.io`) and write the synopsis to a JSON file.

``build-wavelet``
    Build a B-term wavelet synopsis of a model and write it to a JSON file.

``evaluate``
    Report the expected error of a stored synopsis against a stored model
    under one or more metrics.

``generate``
    Produce one of the built-in synthetic datasets (movies / tpch / sensors)
    and write it in the JSON interchange format.

``experiment``
    Run a scaled-down version of one of the paper's experiments (figure2,
    figure3 or figure4) and print the resulting table.

``serve-build``
    Build (or fetch from a :class:`repro.service.SynopsisStore` cache) a
    synopsis for serving; repeat invocations with the same data and
    configuration are cache hits that skip the dynamic program.  The build
    configuration is either the individual flags or a serialized
    :class:`repro.core.SynopsisSpec` passed as ``--spec FILE``; ``--shards K``
    builds a partitioned synopsis (shard DP sweeps on a thread pool sized
    from the CPU count, optimal cross-shard budget allocation) over the
    configured base kind.

``query``
    Answer point / range-sum / range-avg queries against a served synopsis
    through the vectorised batch engine, with per-query expected-error
    attribution; ``--replay N`` generates a workload-driven query mix and
    reports serving throughput instead.  ``--json`` emits the exact wire
    schema (:mod:`repro.service.protocol`) instead of the human table.

``serve``
    Run the asyncio serving daemon (:mod:`repro.service.server`): newline-
    delimited JSON over TCP, request coalescing into micro-batches,
    admission control and graceful draining shutdown on SIGINT/SIGTERM (or
    on the wire ``shutdown`` op, with ``--allow-remote-shutdown``).

``telemetry``
    Scrape a running daemon's metrics over the wire ``metrics`` op and
    validate the Prometheus text exposition: parse it strictly, optionally
    enforce a minimum family count (``--min-families``) and required family
    names (``--require``, repeatable), and write the scrape to ``--output``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .core.builders import build
from .core.metrics import DEFAULT_SANITY, ErrorMetric
from .core.spec import (
    DEFAULT_EPSILON,
    DEFAULT_SSE_VARIANT,
    PartitionSpec,
    SynopsisSpec,
)
from .datasets import generate_movie_linkage, generate_sensor_readings, generate_tpch_lineitem
from .evaluation.errors import expected_error
from .exceptions import ReproError
from .experiments import (
    histogram_quality_table,
    run_histogram_quality,
    run_timing_vs_buckets,
    run_timing_vs_domain,
    run_wavelet_quality,
    timing_table,
    wavelet_quality_table,
)
from .histograms.kernels import AUTO_KERNEL, available_kernels
from .io import read_model, read_synopsis, write_model, write_synopsis
from .service.server import DEFAULT_PORT, DaemonConfig

__all__ = ["main", "build_parser"]

_METRIC_CHOICES = [metric.value for metric in ErrorMetric]
_DATASET_CHOICES = ["movies", "tpch", "sensors"]
_KERNEL_CHOICES = [AUTO_KERNEL, *available_kernels()]
#: ``serve``'s tunable defaults are DaemonConfig's own.
_DAEMON_DEFAULTS = DaemonConfig()

# Single source of the serving-command build-flag defaults: the parser reads
# them, and --spec conflict detection compares against them.
_SERVING_DEFAULTS = {
    "synopsis": "histogram",
    "metric": "sse",
    "sanity": DEFAULT_SANITY,
    "method": "optimal",
    "kernel": AUTO_KERNEL,
    "epsilon": DEFAULT_EPSILON,
    "sse_variant": DEFAULT_SSE_VARIANT,
    "shards": None,
    "partition_strategy": "equal_width",
    "allocation": "exact",
}


def _serving_config_parser() -> argparse.ArgumentParser:
    """The shared serve-build/query/serve build-configuration flags."""
    serving_config = argparse.ArgumentParser(add_help=False)
    serving_config.add_argument("--input", required=True, help="model JSON file")
    serving_config.add_argument("--store", required=True, help="synopsis store directory")
    serving_config.add_argument(
        "--store-format", choices=["columnar"], default="columnar",
        help="on-disk store format; the binary columnar pack (zero-copy mmap "
        "loads) is the only one",
    )
    serving_config.add_argument(
        "--spec", metavar="FILE", default=None,
        help="SynopsisSpec JSON file; replaces the individual build flags",
    )
    serving_config.add_argument("--budget", type=int, default=None,
                                help="bucket / coefficient budget B")
    serving_config.add_argument(
        "--synopsis", choices=["histogram", "wavelet"],
        default=_SERVING_DEFAULTS["synopsis"],
    )
    serving_config.add_argument("--metric", choices=_METRIC_CHOICES,
                                default=_SERVING_DEFAULTS["metric"])
    serving_config.add_argument("--sanity", type=float, default=_SERVING_DEFAULTS["sanity"],
                                help="sanity constant c")
    serving_config.add_argument("--method", choices=["optimal", "approximate"],
                                default=_SERVING_DEFAULTS["method"])
    serving_config.add_argument("--epsilon", type=float, default=_SERVING_DEFAULTS["epsilon"])
    serving_config.add_argument("--kernel", choices=_KERNEL_CHOICES,
                                default=_SERVING_DEFAULTS["kernel"])
    serving_config.add_argument("--sse-variant", choices=["fixed", "paper"],
                                default=_SERVING_DEFAULTS["sse_variant"])
    serving_config.add_argument(
        "--shards", type=int, default=_SERVING_DEFAULTS["shards"], metavar="K",
        help="build a partitioned synopsis over K domain shards "
        "(--synopsis then names the per-shard base kind)",
    )
    serving_config.add_argument(
        "--partition-strategy", choices=["equal_width", "equal_mass"],
        default=_SERVING_DEFAULTS["partition_strategy"],
        help="how --shards splits the domain (explicit cuts go via --spec)",
    )
    serving_config.add_argument(
        "--allocation", choices=["exact", "greedy"],
        default=_SERVING_DEFAULTS["allocation"],
        help="cross-shard budget allocation: optimal min-plus DP or the "
        "greedy heuristic",
    )
    return serving_config


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro-synopses",
        description="Histogram and wavelet synopses on probabilistic data "
        "(Cormode & Garofalakis, ICDE 2009).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # build-histogram ---------------------------------------------------
    hist = subparsers.add_parser("build-histogram", help="build a bucket histogram synopsis")
    hist.add_argument("--input", required=True, help="model JSON file")
    hist.add_argument("--output", required=True, help="synopsis JSON file to write")
    hist.add_argument("--buckets", type=int, required=True, help="bucket budget B")
    hist.add_argument("--metric", choices=_METRIC_CHOICES, default="sse")
    hist.add_argument("--sanity", type=float, default=DEFAULT_SANITY, help="sanity constant c")
    hist.add_argument(
        "--method", choices=["optimal", "approximate"], default="optimal",
        help="exact DP or the (1+eps) approximation",
    )
    hist.add_argument("--epsilon", type=float, default=0.1, help="slack for --method approximate")
    hist.add_argument(
        "--kernel", choices=_KERNEL_CHOICES, default=AUTO_KERNEL,
        help="DP kernel for --method optimal (see DESIGN.md); unsuitable "
        "choices fall back automatically",
    )
    hist.add_argument(
        "--sse-variant", choices=["fixed", "paper"], default="fixed",
        help="SSE bucket-cost formulation (see DESIGN.md)",
    )

    # build-wavelet ------------------------------------------------------
    wave = subparsers.add_parser("build-wavelet", help="build a Haar wavelet synopsis")
    wave.add_argument("--input", required=True, help="model JSON file")
    wave.add_argument("--output", required=True, help="synopsis JSON file to write")
    wave.add_argument("--coefficients", type=int, required=True, help="coefficient budget B")
    wave.add_argument("--metric", choices=_METRIC_CHOICES, default="sse")
    wave.add_argument("--sanity", type=float, default=DEFAULT_SANITY, help="sanity constant c")

    # evaluate ------------------------------------------------------------
    evaluate = subparsers.add_parser("evaluate", help="expected error of a stored synopsis")
    evaluate.add_argument("--input", required=True, help="model JSON file")
    evaluate.add_argument("--synopsis", required=True, help="synopsis JSON file")
    evaluate.add_argument(
        "--metric", choices=_METRIC_CHOICES, action="append",
        help="metric to report (repeatable; default: sse)",
    )
    evaluate.add_argument("--sanity", type=float, default=DEFAULT_SANITY, help="sanity constant c")

    # generate ------------------------------------------------------------
    generate = subparsers.add_parser("generate", help="generate a built-in synthetic dataset")
    generate.add_argument("--dataset", choices=_DATASET_CHOICES, required=True)
    generate.add_argument("--output", required=True, help="model JSON file to write")
    generate.add_argument("--domain-size", type=int, default=512)
    generate.add_argument("--seed", type=int, default=None)

    # experiment ----------------------------------------------------------
    experiment = subparsers.add_parser("experiment", help="run a scaled-down paper experiment")
    experiment.add_argument("figure", choices=["figure2", "figure3", "figure4"])
    experiment.add_argument("--dataset", choices=_DATASET_CHOICES, default="movies")
    experiment.add_argument("--domain-size", type=int, default=256)
    experiment.add_argument("--metric", choices=_METRIC_CHOICES, default="ssre")
    experiment.add_argument("--sanity", type=float, default=DEFAULT_SANITY)
    experiment.add_argument("--budgets", type=int, nargs="+", default=[5, 10, 20, 40, 80])
    experiment.add_argument("--seed", type=int, default=7)
    experiment.add_argument(
        "--kernel", choices=_KERNEL_CHOICES, default=AUTO_KERNEL,
        help="DP kernel for the histogram constructions",
    )

    # serve-build / query / serve ------------------------------------------
    # Every serving-side subcommand resolves a synopsis through the store
    # under the same build configuration, shared via a parent parser so the
    # surfaces cannot drift apart.
    serving_config = _serving_config_parser()
    subparsers.add_parser(
        "serve-build", parents=[serving_config],
        help="build a synopsis through the serving-layer cache",
    )

    query = subparsers.add_parser(
        "query", parents=[serving_config],
        help="answer queries against a served synopsis",
    )
    query.add_argument("--point", type=int, action="append", default=[],
                       metavar="ITEM", help="point query (repeatable)")
    query.add_argument("--range", action="append", default=[], metavar="START:END",
                       help="range-sum query, inclusive (repeatable)")
    query.add_argument("--avg", action="append", default=[], metavar="START:END",
                       help="range-average query, inclusive (repeatable)")
    query.add_argument("--replay", type=int, default=0, metavar="N",
                       help="generate and replay a mix of N workload-driven queries")
    query.add_argument("--seed", type=int, default=7, help="seed for --replay")
    query.add_argument("--stats", action="store_true",
                       help="append the store's hit/build counters and timings")
    query.add_argument("--json", action="store_true",
                       help="emit wire-schema JSON lines instead of the human table")

    # serve ---------------------------------------------------------------
    serve = subparsers.add_parser(
        "serve", parents=[serving_config],
        help="run the asyncio serving daemon (newline-delimited JSON over TCP)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"TCP port (default {DEFAULT_PORT}; 0 = any free port)")
    serve.add_argument("--max-pending", type=int, default=_DAEMON_DEFAULTS.max_pending,
                       help="admission control: total pending-queue depth")
    serve.add_argument("--max-inflight", type=int,
                       default=_DAEMON_DEFAULTS.max_inflight_per_client,
                       help="admission control: per-client in-flight cap")
    serve.add_argument("--allow-remote-shutdown", action="store_true",
                       help="honour the wire 'shutdown' op (tests, CI)")
    serve.add_argument("--ready-file", metavar="FILE", default=None,
                       help="write 'host:port' here once listening (for scripts "
                       "starting the daemon on --port 0)")
    serve.add_argument("--also-budget", type=int, action="append", default=[],
                       metavar="B",
                       help="serve an extra target 'b{B}' at this budget under the "
                       "same configuration (repeatable)")
    serve.add_argument("--log-level", choices=["debug", "info", "warning", "error"],
                       default="info",
                       help="structured JSON log level on stderr (default info)")
    serve.add_argument("--slow-query-ms", type=float, default=_DAEMON_DEFAULTS.slow_query_ms,
                       metavar="MS",
                       help="log a structured slow-query record (with the flush's "
                       "span tree) for any engine flush at or above this wall time")

    # telemetry -----------------------------------------------------------
    telemetry = subparsers.add_parser(
        "telemetry",
        help="scrape and validate a running daemon's Prometheus metrics",
    )
    telemetry.add_argument("--connect", metavar="HOST:PORT", default=None,
                           help="daemon address (overrides --host/--port)")
    telemetry.add_argument("--host", default="127.0.0.1", help="daemon host")
    telemetry.add_argument("--port", type=int, default=DEFAULT_PORT, help="daemon port")
    telemetry.add_argument("--output", metavar="FILE", default=None,
                           help="write the raw exposition text here")
    telemetry.add_argument("--min-families", type=int, default=0, metavar="N",
                           help="fail unless the scrape exposes at least N metric "
                           "families")
    telemetry.add_argument("--require", action="append", default=[], metavar="FAMILY",
                           help="fail unless this metric family is present "
                           "(repeatable)")

    # store ---------------------------------------------------------------
    store = subparsers.add_parser(
        "store", help="operate on a synopsis store directory",
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    inspect = store_commands.add_parser(
        "inspect",
        help="print the store's header index (keys, kinds, segments, offsets)",
    )
    inspect.add_argument("--store", required=True, help="synopsis store directory")
    inspect.add_argument(
        "--verify", action="store_true",
        help="checksum every entry and report per-entry health",
    )
    return parser


def _make_dataset(name: str, domain_size: int, seed: Optional[int]):
    if name == "movies":
        return generate_movie_linkage(domain_size, seed=seed)
    if name == "tpch":
        return generate_tpch_lineitem(domain_size, domain_size * 4, seed=seed)
    if name == "sensors":
        return generate_sensor_readings(domain_size, seed=seed)
    raise ReproError(f"unknown dataset {name!r}")  # pragma: no cover - argparse guards this


def _run_experiment(args: argparse.Namespace) -> str:
    model = _make_dataset(args.dataset, args.domain_size, args.seed)
    if args.figure == "figure2":
        result = run_histogram_quality(
            model, args.metric, args.budgets, sanity=args.sanity, seed=args.seed,
            kernel=args.kernel,
        )
        return histogram_quality_table(result)
    if args.figure == "figure3":
        sizes = [args.domain_size // 4, args.domain_size // 2, args.domain_size]
        vs_domain = run_timing_vs_domain(
            sizes, buckets=min(args.budgets), metric=args.metric, kernel=args.kernel
        )
        vs_buckets = run_timing_vs_buckets(
            args.budgets, domain_size=args.domain_size, metric=args.metric, kernel=args.kernel
        )
        return timing_table(vs_domain) + "\n\n" + timing_table(vs_buckets)
    # Non-SSE metrics add a restricted-DP curve (one tabulation per metric,
    # all budgets read off the same sweep) next to the greedy-SSE curves.
    dp_metrics = [] if args.metric == "sse" else [args.metric]
    result = run_wavelet_quality(
        model, args.budgets, seed=args.seed, dp_metrics=dp_metrics, sanity=args.sanity
    )
    return wavelet_quality_table(result)


def _serving_spec(args: argparse.Namespace) -> SynopsisSpec:
    """The build spec of a serve-build/query invocation.

    ``--spec FILE`` loads a serialized :class:`SynopsisSpec` verbatim;
    otherwise the individual flags assemble one.  Either way the serving
    layer receives a single validated spec object.
    """
    if args.spec is not None:
        from pathlib import Path

        # The spec file is the whole build configuration: reject conflicting
        # flags instead of silently ignoring them (--budget alone may narrow
        # a sweep spec to one of its declared budgets).
        overridden = [
            f"--{name.replace('_', '-')}"
            for name, default in _SERVING_DEFAULTS.items()
            if getattr(args, name) != default
        ]
        if overridden:
            raise ReproError(
                f"--spec carries the full build configuration; drop {', '.join(overridden)} "
                "or edit the spec file"
            )
        spec = SynopsisSpec.from_json(Path(args.spec).read_text())
        if args.budget is not None:
            if args.budget not in spec.budgets:
                declared = "/".join(str(b) for b in spec.budgets)
                raise ReproError(
                    f"--budget {args.budget} is not declared by the spec "
                    f"(budgets: {declared}); edit the spec file instead"
                )
            spec = spec.with_budget(args.budget)
        elif spec.is_sweep:
            raise ReproError(
                "the spec file declares a budget sweep; pick the budget to "
                "serve with --budget B"
            )
        return spec
    if args.budget is None:
        raise ReproError("give --budget B (or a full --spec FILE)")
    if args.shards is None:
        partition_flags = [
            f"--{name.replace('_', '-')}"
            for name in ("partition_strategy", "allocation")
            if getattr(args, name) != _SERVING_DEFAULTS[name]
        ]
        if partition_flags:
            raise ReproError(
                f"{', '.join(partition_flags)} only apply to partitioned "
                "builds; add --shards K"
            )
        partition = None
        kind = args.synopsis
    else:
        # --shards wraps the configured base synopsis in a partitioned build:
        # the base-kind flags keep their meaning, per shard.
        partition = PartitionSpec(
            shards=args.shards,
            strategy=args.partition_strategy,
            allocation=args.allocation,
            base=args.synopsis,
        )
        kind = "partitioned"
    return SynopsisSpec(
        kind=kind,
        budget=args.budget,
        metric=args.metric,
        sanity=args.sanity,
        method=args.method,
        kernel=args.kernel,
        epsilon=args.epsilon,
        sse_variant=args.sse_variant,
        partition=partition,
    )


def _store_get_or_build(args: argparse.Namespace, model):
    """Shared serve-build/query path: fetch the synopsis through the store."""
    from .service import SynopsisStore

    store = SynopsisStore(args.store)
    spec = _serving_spec(args)
    synopsis = store.get_or_build(model, spec)
    return store, spec, synopsis


def _serve_build(args: argparse.Namespace) -> str:
    model = read_model(args.input)
    store, spec, synopsis = _store_get_or_build(args, model)
    stats = store.stats
    served_from = "cache" if stats.memory_hits or stats.disk_hits else "fresh build"
    error = expected_error(model, synopsis, spec.metric)
    return (
        f"served {synopsis!r} [{spec.describe()}] from {served_from} "
        f"(store: {stats.builds} built, {stats.disk_hits} disk hits); "
        f"expected {spec.metric.describe()} = {error:.6g}"
    )


def _run_query(args: argparse.Namespace) -> str:
    import json as json_module

    from .exceptions import ProtocolError
    from .service import (
        PROTOCOL_VERSION,
        BatchQueryEngine,
        QueryBatch,
        QueryRequest,
        encode_responses,
        replay,
    )

    def parse_range(text: str):
        try:
            start, end = text.split(":", 1)
            return int(start), int(end)
        except ValueError:
            raise ReproError(f"expected START:END, got {text!r}") from None

    explicit = bool(args.point or args.range or args.avg)
    if args.replay and explicit:
        raise ReproError(
            "--replay generates its own query mix; drop it to answer the "
            "explicit --point/--range/--avg queries, or drop those to replay"
        )

    model = read_model(args.input)
    store, spec, synopsis = _store_get_or_build(args, model)
    engine = BatchQueryEngine.from_model(synopsis, model, spec.metric, workload=spec.workload)

    # The CLI's structured stats line is the wire 'stats' op's store payload,
    # so scripted consumers read one schema whether they scrape the CLI or
    # the daemon.
    stats_payload = {
        "op": "stats",
        "version": PROTOCOL_VERSION,
        "store": store.stats.as_dict(),
    }

    def with_stats(text: str) -> str:
        if not args.stats:
            return text
        return text + "\n" + _render_store_stats(store)

    if args.replay:
        # The per-query reference loop is O(N) per wavelet point query, so it
        # is only timed (and cross-checked) on modest replays; the benchmark
        # and test-suite pin batch == serial equality exhaustively.
        compare_serial = args.replay <= 10_000
        report = replay(
            engine, count=args.replay, seed=args.seed, compare_serial=compare_serial
        )
        if args.json:
            lines = [json_module.dumps(report, sort_keys=True)]
            if args.stats:
                lines.append(json_module.dumps(stats_payload, sort_keys=True))
            return "\n".join(lines)
        latency = report["latency_ms"]
        speedup = (
            f" ({report['batch_speedup_vs_serial']:.1f}x over the per-query loop)"
            if compare_serial
            else ""
        )
        return with_stats(
            f"replayed {report['queries']} queries ({report['kind_counts']}) in "
            f"{report['batch_seconds']:.4f}s: {report['qps']:,.0f} "
            f"queries/s{speedup}; "
            f"chunk latency p50 {latency['p50']:.3f}ms / p95 {latency['p95']:.3f}ms"
        )

    # Explicit queries travel through the one wire schema: CLI flags become
    # QueryRequests, the engine answers the coalesced batch, and --json
    # encodes the answers exactly as the daemon would.
    try:
        requests = [
            QueryRequest.point(f"q{position}", item)
            for position, item in enumerate(args.point)
        ]
        requests += [
            QueryRequest.range_sum(f"q{len(requests) + position}", *parse_range(text))
            for position, text in enumerate(args.range)
        ]
        requests += [
            QueryRequest.range_avg(f"q{len(requests) + position}", *parse_range(text))
            for position, text in enumerate(args.avg)
        ]
    except ProtocolError as exc:
        raise ReproError(str(exc)) from None
    if not requests:
        raise ReproError("no queries given; use --point / --range / --avg or --replay N")
    batch = QueryBatch.from_requests(requests)
    answers = engine.answer(batch)
    errors = engine.attribute_errors(batch)
    if args.json:
        lines = [
            line.decode().rstrip("\n")
            for line in encode_responses([r.id for r in requests], answers, errors)
        ]
        if args.stats:
            lines.append(json_module.dumps(stats_payload, sort_keys=True))
        return "\n".join(lines)
    lines = [f"{'query':<24} {'answer':>14} {'expected error':>16}"]
    for request, answer, error in zip(requests, answers, errors):
        kind, start, end = request.kind, request.start, request.end
        label = f"{kind}[{start}]" if kind == "point" else f"{kind}[{start}:{end}]"
        lines.append(f"{label:<24} {answer:>14.6g} {error:>16.6g}")
    return with_stats("\n".join(lines))


def _render_store_stats(store) -> str:
    """One-paragraph summary of the store's counters and timings (--stats)."""
    stats = store.stats
    by_backend = ", ".join(
        f"{name}={count}" for name, count in sorted(stats.disk_hits_by_backend.items())
    )
    return (
        f"store stats: {stats.lookups} lookups = "
        f"{stats.builds} builds ({stats.build_seconds:.4f}s) + "
        f"{stats.memory_hits} memory hits + {stats.disk_hits} disk hits "
        f"({stats.disk_load_seconds:.4f}s{'; ' + by_backend if by_backend else ''}); "
        f"{stats.puts} puts, {stats.evictions} evictions"
    )


def _daemon_config(args: argparse.Namespace) -> DaemonConfig:
    """The :class:`DaemonConfig` a parsed ``serve`` command line asks for."""
    return DaemonConfig(
        max_pending=args.max_pending,
        max_inflight_per_client=args.max_inflight,
        allow_remote_shutdown=args.allow_remote_shutdown,
        slow_query_ms=args.slow_query_ms,
    )


def _serve(args: argparse.Namespace) -> str:
    """Run the serving daemon until a signal or a remote shutdown stops it."""
    import asyncio
    import signal
    from pathlib import Path

    from .service import ServingDaemon, SynopsisStore
    from .telemetry import configure_logging

    configure_logging(args.log_level)
    model = read_model(args.input)
    store = SynopsisStore(args.store)
    spec = _serving_spec(args)
    # The primary spec serves as target "default"; --also-budget B adds a
    # sibling target "b{B}" under the same build configuration, so one daemon
    # can serve several accuracy/size points of the same dataset.
    targets = {"default": spec}
    for extra in args.also_budget:
        targets[f"b{extra}"] = spec.with_budget(extra)
    config = _daemon_config(args)
    daemon = ServingDaemon(model, store, targets, config=config, default_target="default")

    async def _run() -> None:
        host, port = await daemon.start(args.host, args.port)
        names = ", ".join(sorted(targets))
        print(
            f"serving {names} on {host}:{port} (pending cap {config.max_pending})",
            flush=True,
        )
        if args.ready_file:
            # Scripts starting the daemon on --port 0 poll this file for the
            # actual bound address.
            Path(args.ready_file).write_text(f"{host}:{port}")
        loop = asyncio.get_running_loop()

        def _request_stop() -> None:
            asyncio.ensure_future(daemon.stop())

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, _request_stop)
            except (ValueError, NotImplementedError, RuntimeError, OSError):
                # Not on the main thread (tests) or an unsupported platform;
                # KeyboardInterrupt still reaches the outer try.
                pass
        await daemon.serve_until_stopped()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive fallback
        pass
    stats = daemon.stats
    return (
        f"daemon drained and stopped: {stats.queries_answered} queries answered "
        f"in {stats.engine_batches} engine batches, {stats.overloaded} overloaded"
    )


def _daemon_address(args: argparse.Namespace):
    """Resolve --connect HOST:PORT (or --host/--port) to an address pair."""
    if args.connect:
        host, _, port_text = args.connect.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            raise ReproError(f"--connect expects HOST:PORT, got {args.connect!r}") from None
        return host or "127.0.0.1", port
    return args.host, args.port


def _run_telemetry(args: argparse.Namespace) -> str:
    """Scrape a daemon's wire ``metrics`` op and validate the exposition."""
    import asyncio
    from pathlib import Path

    from .service import OP_METRICS, DaemonClient
    from .telemetry import parse_prometheus_text

    host, port = _daemon_address(args)

    async def _scrape():
        client = await DaemonClient.connect(host, port)
        try:
            return await client.round_trip({"op": OP_METRICS})
        finally:
            await client.close()

    try:
        reply = asyncio.run(_scrape())
    except ConnectionRefusedError:
        raise ReproError(f"no daemon is listening on {host}:{port}") from None
    if reply.get("op") != OP_METRICS or "body" not in reply:
        raise ReproError(f"expected a metrics payload, got {reply!r}")
    body = reply["body"]
    try:
        families = parse_prometheus_text(body)
    except ValueError as exc:
        raise ReproError(f"the scrape is not valid Prometheus text: {exc}") from None

    missing = [name for name in args.require if name not in families]
    if missing:
        raise ReproError(
            f"required metric families are missing from the scrape: "
            f"{', '.join(sorted(missing))}"
        )
    if len(families) < args.min_families:
        raise ReproError(
            f"the scrape exposes {len(families)} metric families; "
            f"--min-families asked for {args.min_families}"
        )

    if args.output:
        Path(args.output).write_text(body)
    samples = sum(len(family.samples) for family in families.values())
    lines = [
        f"scraped {host}:{port}: {len(families)} metric families, "
        f"{samples} samples ({reply.get('content_type', 'unknown content type')})"
    ]
    for family in families.values():
        lines.append(f"  {family.kind:<9} {family.name} ({len(family.samples)} samples)")
    if args.output:
        lines.append(f"wrote {args.output}")
    return "\n".join(lines)


def _store_inspect(args: argparse.Namespace) -> str:
    """Render a store directory's header index (the ``store inspect`` command)."""
    from pathlib import Path

    from .io.binary_format import PACK_VERSION, SynopsisPack

    directory = Path(args.store)
    if not directory.is_dir():
        raise ReproError(f"no store directory at {directory}")
    if not SynopsisPack.present(directory):
        raise ReproError(f"no columnar pack store at {directory}")
    pack = SynopsisPack(directory)
    rows = pack.describe(verify=args.verify)
    lines = [
        f"columnar store at {directory} (format v{PACK_VERSION}): "
        f"{len(pack)} entries, {pack.dead_records} superseded records, "
        f"pack {pack.pack_path.stat().st_size:,} bytes, "
        f"index {pack.index_path.stat().st_size:,} bytes"
    ]
    for row in rows:
        health = ""
        if args.verify:
            health = " crc ok" if row.get("crc_ok") else " CRC MISMATCH"
        lines.append(
            f"{row['key'][:16]}…  kind={row['kind']}  "
            f"@{row['offset']}  {row['nbytes']:,} bytes  {row['crc32']}{health}"
        )
        for segment in row["segments"]:
            shape = "x".join(str(s) for s in segment["shape"])
            lines.append(
                f"    {segment['name']:<28} {segment['dtype']:>5} "
                f"[{shape}]  @{segment['offset']}  {segment['nbytes']:,} bytes"
            )
        if "error" in row:
            lines.append(f"    unreadable: {row['error']}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "build-histogram":
            model = read_model(args.input)
            spec = SynopsisSpec(
                kind="histogram",
                budget=args.buckets,
                metric=args.metric,
                sanity=args.sanity,
                method=args.method,
                kernel=args.kernel,
                epsilon=args.epsilon,
                sse_variant=args.sse_variant,
            )
            histogram = build(model, spec)
            write_synopsis(histogram, args.output)
            error = expected_error(model, histogram, spec.metric)
            print(
                f"wrote {args.output}: {histogram.bucket_count} buckets, "
                f"expected {args.metric.upper()} = {error:.6g}"
            )
        elif args.command == "build-wavelet":
            model = read_model(args.input)
            spec = SynopsisSpec(
                kind="wavelet",
                budget=args.coefficients,
                metric=args.metric,
                sanity=args.sanity,
            )
            synopsis = build(model, spec)
            write_synopsis(synopsis, args.output)
            error = expected_error(model, synopsis, spec.metric)
            print(
                f"wrote {args.output}: {synopsis.term_count} coefficients, "
                f"expected {args.metric.upper()} = {error:.6g}"
            )
        elif args.command == "evaluate":
            model = read_model(args.input)
            synopsis = read_synopsis(args.synopsis)
            metrics = args.metric or ["sse"]
            for metric in metrics:
                error = expected_error(model, synopsis, metric, sanity=args.sanity)
                print(f"{metric.upper()}: {error:.6g}")
        elif args.command == "generate":
            model = _make_dataset(args.dataset, args.domain_size, args.seed)
            write_model(model, args.output)
            print(f"wrote {args.output}: {model!r}")
        elif args.command == "experiment":
            print(_run_experiment(args))
        elif args.command == "serve-build":
            print(_serve_build(args))
        elif args.command == "query":
            print(_run_query(args))
        elif args.command == "serve":
            print(_serve(args))
        elif args.command == "telemetry":
            print(_run_telemetry(args))
        elif args.command == "store":
            print(_store_inspect(args))
        else:  # pragma: no cover - argparse guards this
            parser.error(f"unknown command {args.command!r}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
