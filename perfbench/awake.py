"""Keep every CPU out of halt while a serve workload is timed.

On a shared hypervisor a halted vCPU is woken by the host scheduler, and
under host load that takes milliseconds.  The daemon's 2 ms coalescing timer
and the open-loop generator's send times would then carry the host's wake-up
delay, not the program's latency, and their tail would follow the
neighbours' load from run to run.  One ``SCHED_IDLE`` spinner per CPU keeps
the vCPUs running: the kernel preempts a ``SCHED_IDLE`` task at once for any
normal task, so the daemon and the generator still get the whole CPU.

Run as ``python awake.py CPU``: spins on ``CPU`` until it is terminated,
its parent exits, or ``MAX_SECONDS`` pass.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator

#: A spinner outlives no benchmark run, even one whose parent hangs.
MAX_SECONDS = 180.0


@contextlib.contextmanager
def cpus_awake(env: Dict[str, str]) -> Iterator[None]:
    """One spinner per CPU this process may use, stopped on exit."""
    spinners = [
        subprocess.Popen([sys.executable, str(Path(__file__).resolve()), str(cpu)],
                         stdin=subprocess.DEVNULL, env=env)
        for cpu in sorted(os.sched_getaffinity(0))
    ]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.terminate()
        for spinner in spinners:
            spinner.wait()


def spin(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    parent = os.getppid()
    deadline = time.monotonic() + MAX_SECONDS
    while time.monotonic() < deadline and os.getppid() == parent:
        for _ in range(100_000):
            pass


if __name__ == "__main__":
    spin(int(sys.argv[1]))
