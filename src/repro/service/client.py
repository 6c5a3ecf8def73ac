"""A minimal asyncio client for the serving daemon's wire protocol.

One :class:`DaemonClient` is one newline-delimited-JSON connection to a
:class:`~repro.service.server.ServingDaemon`.  ``repro-synopses telemetry``
scrapes the daemon through it, and the daemon tests drive it with it.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict

from ..exceptions import ProtocolError
from .protocol import QueryRequest, QueryResponse, parse_request_line

__all__ = ["DaemonClient"]


class DaemonClient:
    """One newline-delimited-JSON connection to the daemon."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "DaemonClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def send(self, payload: Dict[str, Any]) -> None:
        self._writer.write((json.dumps(payload, separators=(",", ":")) + "\n").encode())
        await self._writer.drain()

    async def recv(self) -> Dict[str, Any]:
        line = await self._reader.readline()
        if not line:
            raise ProtocolError("the daemon closed the connection mid-conversation")
        return parse_request_line(line)

    async def round_trip(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one payload and read one reply (single-outstanding use only)."""
        await self.send(payload)
        return await self.recv()

    async def query(self, request: QueryRequest) -> QueryResponse:
        """Send one query and wait for its (id-matched) response."""
        reply = await self.round_trip(request.to_dict())
        response = QueryResponse.from_dict(reply)
        if response.id != request.id:
            raise ProtocolError(
                f"response id {response.id!r} does not match request id {request.id!r}"
            )
        return response

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
