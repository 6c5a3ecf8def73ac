"""One benchmark command for the serve and build paths of repro-synopses.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-sparse --seed 1 --seconds 20 --trace 0

Workloads (the program sees only inputs generated from ``--seed``):

* ``serve-sparse``: open loop, one connection, seeded Poisson arrivals at
  200 queries/s against ``repro-synopses serve --store-format columnar``.
  The daemon is almost always idle, so latency is the coalescing window plus
  one query's Python.  Latency is timed from each request's scheduled time.
* ``serve-saturate``: closed loop, two connections with 16 requests
  pipelined on each (32 in flight).  Every window fills, so throughput is set
  by the daemon's per-flush Python.
* ``build-mix``: closed loop of store misses through a columnar
  ``SynopsisStore.get_or_build`` in a build process, cycling an SSE histogram
  (compiled kernel), an SAE histogram (numpy kernel) and an SAE wavelet
  (restricted DP).  The only workload that writes the store.

On the serve workloads ``latency_p95_ms`` is the p95 of the run's quiet
half-second slices (``serve.SLICE_SECONDS``); the whole run's p95 is in the
``# record`` line.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the workload with the layer timers of ``tracer.py``
installed on alternate slices (serve) or rounds of builds (build-mix) and
prints the per-layer metrics, including the timers' own overhead.  Every
answer is checked; the last line of standard output is the JSON result.
While a serve workload is timed, ``awake.py`` keeps the CPUs out of halt
(see there why); the build process never sleeps, so build-mix runs without
it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-sparse", "serve-saturate", "build-mix")

#: Per-layer metrics of the traced run: (name, unit).  A layer the workload
#: does not run reads 0 (the serve workloads build nothing; build-mix serves
#: no queries).
LAYER_METRICS = (
    ("protocol.parse_us", "us"),
    ("protocol.encode_us", "us"),
    ("queries.batch_us", "us"),
    ("engine.answer_us", "us"),
    ("engine.attribute_us", "us"),
    ("server.batch_size", "queries"),
    ("server.flush_ms", "ms"),
    ("server.cpu_us", "us"),
    ("server.residual_cpu_us", "us"),
    ("server.wait_ms", "ms"),
    ("store.load_ms", "ms"),
    ("evaluation.errors_ms", "ms"),
    *((f"store.put_ms.{kind}", "ms") for kind in ("hist-sse", "hist-sae", "wave-sae")),
    *((f"store.put_bytes.{kind}", "bytes") for kind in ("hist-sse", "hist-sae", "wave-sae")),
    *((f"histograms.oracle_ms.{kind}", "ms") for kind in ("hist-sse", "hist-sae")),
    *((f"kernels.dp_ms.{kind}", "ms") for kind in ("hist-sse", "hist-sae")),
    *((f"kernels.reconstruct_ms.{kind}", "ms") for kind in ("hist-sse", "hist-sae")),
    ("wavelets.dp_ms.wave-sae", "ms"),
    *((f"build.other_ms.{kind}", "ms") for kind in ("hist-sse", "hist-sae", "wave-sae")),
    ("trace.overhead", "ratio"),
)


def child_environment(work_root: Path) -> Dict[str, str]:
    """The environment of this process and every process it starts."""
    env = dict(os.environ)
    # numpy links a threaded OpenBLAS: its threads plus the daemon plus the
    # load generator would oversubscribe two cores.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # The cc backend compiles its kernels once into a cache; keep that cache,
    # and every temporary file, inside the checkout.
    env["XDG_CACHE_HOME"] = str(work_root / "cache")
    env["TMPDIR"] = str(work_root / "tmp")
    env["REPRO_COMPILED_BACKEND"] = "cc"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def build_mix(seed: int, seconds: float, trace: bool, env: Dict[str, str],
              work: Path) -> Dict[str, Any]:
    """Launch the build process a few times for set-up, run the last one."""
    config = {"seed": seed, "seconds": seconds, "trace": trace,
              "store": str(work / "build-store")}
    argv = [sys.executable, str(HERE / "build_worker.py"), json.dumps(config)]
    from measure import SETUP_LAUNCHES

    launches = 1 if trace else SETUP_LAUNCHES
    setups: List[float] = []
    for launch in range(launches):
        started = time.perf_counter()
        worker = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  env=env, text=True)
        try:
            ready = worker.stdout.readline()
            setups.append(time.perf_counter() - started)
            if not ready.startswith("ready backend=cc"):
                raise RuntimeError(f"build process not ready with the cc backend: {ready!r}")
            last = launch == launches - 1
            output, _ = worker.communicate("go\n" if last else "exit\n", timeout=seconds + 150)
        finally:
            if worker.poll() is None:
                worker.kill()
            worker.wait()
        if worker.returncode != 0:
            raise RuntimeError(f"build process exited with {worker.returncode}")
    result = json.loads(output.strip().splitlines()[-1])
    result["setups"] = setups
    return result


def build_mix_metrics(result: Dict[str, Any]) -> Dict[str, Any]:
    from measure import percentile

    latencies = [value for values in result["latencies"].values() for value in values]
    ms = [1000.0 * value for value in latencies]
    busy = sum(value for value in latencies if value != float("inf"))
    ok = result["accounting"]["ok"]
    return {
        "setup_s": (statistics.median(result["setups"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "latency_p50_ms": (percentile(ms, 50), "ms"),
        "latency_p95_ms": (percentile(ms, 95), "ms"),
        # Builds per second of building: deriving each job's data is untimed.
        "throughput_per_s": (ok / busy if busy else 0.0, "1/s"),
        "ok_share": (ok / max(1, len(latencies)), "ratio"),
    }


def build_mix_layers(result: Dict[str, Any]) -> Dict[str, float]:
    """Per-build stage means per job kind, from the traced rounds."""
    builds = result["trace"]["builds"]
    layer: Dict[str, float] = {}
    means = []
    for kind in ("hist-sse", "hist-sae", "wave-sae"):
        timed = result["traced"][kind]
        count = max(1, len(timed))
        stage = {
            name: builds["seconds"].get(f"{name}|{kind}", 0.0)
            for name in ("histograms.oracle", "kernels.dp", "kernels.reconstruct",
                         "wavelets.dp", "store.put")
        }
        layer[f"store.put_ms.{kind}"] = 1000.0 * stage["store.put"] / count
        put_bytes = builds["counts"].get(f"store.put_bytes|{kind}", 0)
        layer[f"store.put_bytes.{kind}"] = put_bytes / count
        if kind == "wave-sae":
            layer["wavelets.dp_ms.wave-sae"] = 1000.0 * stage["wavelets.dp"] / count
        else:
            layer[f"histograms.oracle_ms.{kind}"] = 1000.0 * stage["histograms.oracle"] / count
            layer[f"kernels.dp_ms.{kind}"] = 1000.0 * stage["kernels.dp"] / count
            layer[f"kernels.reconstruct_ms.{kind}"] = (
                1000.0 * stage["kernels.reconstruct"] / count
            )
        layer[f"build.other_ms.{kind}"] = 1000.0 * (sum(timed) - sum(stage.values())) / count
        means.append((statistics.fmean(result["latencies"][kind]), statistics.fmean(timed)))
    reread = result["trace"]["reread"]
    loads = max(1, reread["calls"].get("store.load|", 0))
    layer["store.load_ms"] = 1000.0 * reread["seconds"].get("store.load|", 0.0) / loads
    # 1 - traced/untraced builds per second of building, kinds weighted equally.
    layer["trace.overhead"] = 1.0 - sum(plain for plain, _ in means) / sum(
        timed for _, timed in means
    )
    return layer


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"the program's source is not at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench-work"
    env = child_environment(work_root)
    for name in ("XDG_CACHE_HOME", "TMPDIR"):
        Path(env[name]).mkdir(parents=True, exist_ok=True)
    os.environ.update(env)
    tempfile.tempdir = env["TMPDIR"]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

    from _env import environment  # the shared stamp of benchmarks/_env.py

    from measure import cpu_ticks, speed_probe

    stamp = environment()  # resolves, and if needed compiles, the cc backend
    if stamp["compiled_backend"] != "cc":
        print(f"the cc compiled backend is missing: {stamp['compiled_backend']}",
              file=sys.stderr)
        return 3
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        probe_before = speed_probe()
        steal_before = cpu_ticks()
        if args.workload == "build-mix":
            result = build_mix(args.seed, args.seconds, bool(args.trace), env, work)
            checks = result["checks"]
            accounting = result["accounting"]
            correct = all(checks.values())
            record = {"checks": checks, "resolved_kernels": result["resolved_kernels"],
                      "jobs": result["jobs"],
                      "builds_per_kind": {k: len(v) for k, v in result["latencies"].items()},
                      "p50_ms_per_kind": {k: 1000.0 * statistics.median(v)
                                          for k, v in result["latencies"].items() if v}}
            metrics = build_mix_layers(result) if args.trace else build_mix_metrics(result)
        else:
            import serve

            prepared = serve.prepare(work, args.seed)
            workload = serve.Workload(args.workload, args.seed, prepared)
            run = serve.traced if args.trace else serve.untraced
            outcome = run(workload, env, work, args.seconds)
            accounting = outcome["accounting"].as_dict()
            correct = outcome["correct"]
            record = outcome["record"]
            metrics = outcome["layer"] if args.trace else outcome["metrics"]
        steal_after = cpu_ticks()
        probe_after = speed_probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = {name: (metrics.get(name, 0.0), unit) for name, unit in LAYER_METRICS}
    else:
        values = metrics
    record.update(
        environment=stamp,
        speed_probe_ms={"before": probe_before, "after": probe_after},
        cpu_steal_share=(steal_after[0] - steal_before[0])
        / max(1, steal_after[1] - steal_before[1]),
    )
    print(f"# {args.workload} seed={args.seed} trace={args.trace} correct={correct} "
          f"failed_share={accounting['failed_share']:.6f} accounting={accounting}")
    for name, (value, unit) in values.items():
        print(f"#   {name} = {value:.6g} {unit}")
    print("# record " + json.dumps(record, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(accounting["attempted"]),
        "failed": int(accounting["attempted"] - accounting["ok"]),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
