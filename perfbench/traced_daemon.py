"""``repro-synopses serve`` with the benchmark's layer timers installed.

Usage: ``python traced_daemon.py SNAPSHOT_FILE serve [flags...]``.  On SIGUSR1
the process writes its accumulated per-stage totals to ``SNAPSHOT_FILE``
(atomically, with a sequence number), so the benchmark can take the
difference over exactly its measured window.
"""

from __future__ import annotations

import json
import os
import signal
import sys

from tracer import Tracer


def main(argv) -> int:
    snapshot_path = argv[1]
    tracer = Tracer().install()
    sequence = 0

    def dump(signum, frame) -> None:
        nonlocal sequence
        sequence += 1
        partial = f"{snapshot_path}.tmp"
        with open(partial, "w") as handle:
            json.dump({"sequence": sequence, **tracer.snapshot()}, handle)
        os.replace(partial, snapshot_path)

    signal.signal(signal.SIGUSR1, dump)
    from repro.cli import main as cli_main

    return cli_main(argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
