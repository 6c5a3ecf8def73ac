"""The serving daemon as a child process, and its wire and /proc read-outs."""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class Daemon:
    """One ``repro-synopses serve`` process, launched and timed to its first pong.

    ``argv`` is the full command; the daemon is told ``--port 0`` and the
    bound address is read from the line it prints once it listens.
    """

    def __init__(self, argv: Sequence[str], env: Dict[str, str], log_path: Path,
                 timeout: float = 60.0):
        self._log = open(log_path, "ab")
        launched = time.perf_counter()
        self.process = subprocess.Popen(
            list(argv), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self._log, env=env,
        )
        try:
            self.address = self._read_address(timeout)
            pong = self.request({"op": "ping"})
            if pong.get("op") != "pong":
                raise RuntimeError(f"daemon answered ping with {pong!r}")
        except BaseException:
            self.stop()
            raise
        #: Launch until the first pong: imports, model read, store open,
        #: mmap load and the per-item error warm-up.
        self.setup_seconds = time.perf_counter() - launched

    @property
    def pid(self) -> int:
        return self.process.pid

    def _read_address(self, timeout: float) -> Tuple[str, int]:
        assert self.process.stdout is not None
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError(f"daemon did not start (exit code {self.process.poll()})")
            ready, _, _ = select.select([self.process.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.process.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("daemon closed stdout before listening")
                line += chunk
        # "serving default on HOST:PORT (window ...)"
        words = line.decode().split()
        host, _, port = words[words.index("on") + 1].rpartition(":")
        return host, int(port)

    def request(self, payload: Dict[str, Any], timeout: float = 30.0) -> Dict[str, Any]:
        """One control round trip on its own short-lived connection."""
        with socket.create_connection(self.address, timeout=timeout) as sock:
            sock.sendall((json.dumps(payload) + "\n").encode())
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = sock.recv(1 << 16)
                if not chunk:
                    raise RuntimeError(f"daemon closed the control connection ({payload})")
                reply += chunk
        return json.loads(reply)

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})["stats"]

    def flush_ms_totals(self) -> Tuple[float, float]:
        """``(sum, count)`` of the daemon's ``repro_daemon_flush_latency_ms``."""
        from repro.telemetry import parse_prometheus_text

        family = parse_prometheus_text(self.request({"op": "metrics"})["body"]).get(
            "repro_daemon_flush_latency_ms"
        )
        totals = {"sum": 0.0, "count": 0.0}
        for name, _, value in family.samples if family else []:
            for suffix in totals:
                if name.endswith("_" + suffix):
                    totals[suffix] += value
        return totals["sum"], totals["count"]

    def cpu_seconds(self) -> float:
        """User plus system CPU the daemon has used (``/proc/<pid>/stat``)."""
        fields = Path(f"/proc/{self.pid}/stat").read_text().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def stop(self, timeout: float = 30.0) -> Optional[int]:
        """SIGTERM (the daemon drains and exits), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()
        return self.process.returncode

