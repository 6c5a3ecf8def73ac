"""The benchmark's wire client: one process, no threads, pipelined sockets.

Requests are pre-encoded before timing starts; the timed loops only write
bytes, count response newlines and record timestamps.  Responses are parsed
after the loop (:func:`replies`), so the client's own work stays out of the
daemon's way.  Concurrency comes from pipelining on at most two connections,
not from more connections or threads.
"""

from __future__ import annotations

import json
import select
import socket
import time
from array import array
from collections import defaultdict, deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

perf_counter = time.perf_counter


class Connection:
    """A non-blocking connection that timestamps every chunk it receives."""

    def __init__(self, address: Tuple[str, int]):
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.outgoing = bytearray()
        self.chunks: List[Tuple[float, bytes]] = []
        self.sent = array("d")  # send time of every request, in send order
        self.ids = array("q")  # the id (stream position) each request carried
        self.answered = 0  # response lines received so far
        self.closed = False

    @property
    def outstanding(self) -> int:
        return len(self.sent) - self.answered

    def send(self, line: bytes, position: int) -> None:
        self.outgoing += line
        self.sent.append(perf_counter())
        self.ids.append(position)
        self.flush()

    def flush(self) -> None:
        if self.outgoing:
            try:
                written = self.sock.send(self.outgoing)
            except BlockingIOError:
                return
            del self.outgoing[:written]

    def receive(self) -> int:
        """Read what is there; returns the number of complete lines it ended."""
        try:
            data = self.sock.recv(1 << 18)
        except BlockingIOError:
            return 0
        except ConnectionError:
            data = b""
        if not data:
            self.closed = True
            return 0
        self.chunks.append((perf_counter(), data))
        lines = data.count(b"\n")
        self.answered += lines
        return lines

    def close(self) -> None:
        self.sock.close()


def _poll(connections: Sequence[Connection], timeout: float) -> List[Connection]:
    """Wait up to ``timeout`` s for readable connections (flushing writes)."""
    readers = [c.sock for c in connections if not c.closed]
    writers = [c.sock for c in connections if c.outgoing and not c.closed]
    if not readers:
        return []
    readable, writable, _ = select.select(readers, writers, [], max(0.0, timeout))
    for connection in connections:
        if connection.sock in writable:
            connection.flush()
    return [c for c in connections if c.sock in readable]


def drain(connections: Sequence[Connection], until: float) -> None:
    """Collect responses until every request is answered or ``until`` passes."""
    while perf_counter() < until:
        live = [c for c in connections if c.outstanding and not c.closed]
        if not live:
            return
        for connection in _poll(live, until - perf_counter()):
            connection.receive()


def open_loop(connection: Connection, lines: Sequence[bytes], due: Sequence[float],
              first: int) -> None:
    """Send ``lines[i]`` (id ``first + i``) at absolute time ``due[i]``, whatever the replies do.

    ``select`` takes a microsecond timeout, so the generator sleeps until the
    next arrival instead of spinning; its lateness is reported beside the
    latencies, which are timed from ``due``.
    """
    for position, (line, at) in enumerate(zip(lines, due), start=first):
        while True:
            wait = at - perf_counter()
            if wait <= 0:
                break
            for ready in _poll((connection,), wait):
                ready.receive()
        connection.send(line, position)


def closed_loop(connections: Sequence[Connection], streams: Sequence[Sequence[bytes]],
                depth: int, until: float, positions: List[int]) -> None:
    """Keep ``depth`` requests outstanding per connection until ``until``.

    Each answered line is replaced by the next request of that connection's
    stream (cycled); ``positions`` holds each connection's next stream index
    and is advanced in place, so consecutive calls continue the streams.
    """
    for index, connection in enumerate(connections):
        stream = streams[index]
        while connection.outstanding < depth:
            position = positions[index] % len(stream)
            connection.send(stream[position], position)
            positions[index] += 1
    while True:
        now = perf_counter()
        if now >= until:
            return
        for connection in _poll(connections, until - now):
            index = connections.index(connection)
            stream = streams[index]
            for _ in range(connection.receive()):
                position = positions[index] % len(stream)
                connection.send(stream[position], position)
                positions[index] += 1


def replies(connection: Connection) -> Iterator[Tuple[float, Dict[str, Any]]]:
    """``(receive time, payload)`` of every complete response line, in order."""
    pending = b""
    for received, data in connection.chunks:
        pending += data
        *lines, pending = pending.split(b"\n")
        for line in lines:
            yield received, json.loads(line)


def match(connection: Connection) -> Tuple[array, List[Optional[Dict[str, Any]]]]:
    """Pair responses with sends: per send, its receive time and payload.

    A response belongs to the oldest unanswered send of its id (a stream
    that cycles reuses ids, one pass after another).  Unanswered sends keep
    time ``inf`` and payload ``None``: they were lost.
    """
    sends = len(connection.sent)
    received = array("d", [float("inf")]) * sends
    payloads: List[Optional[Dict[str, Any]]] = [None] * sends
    unanswered: Dict[int, Deque[int]] = defaultdict(deque)
    for index, position in enumerate(connection.ids):
        unanswered[position].append(index)
    for at, payload in replies(connection):
        queue = unanswered.get(payload.get("id"))
        if not queue:
            raise ValueError(f"response to a request the client never sent: {payload!r}")
        index = queue.popleft()
        received[index] = at
        payloads[index] = payload
    return received, payloads
