"""Verification-as-a-service: wire framing and the clients.

The protocol is length-prefixed JSON frames: a 4-byte big-endian
length, then one UTF-8 JSON object.  A request carries an ``op``
(``ping`` / ``stats`` / ``cases`` / ``verify`` / ``verify_channel`` /
``witness`` / ``size`` / ``shutdown``), a network *description* (a
builder name plus kwargs), optional query params and an optional
``deadline_s``; the reply is one frame with ``ok`` and the answer.

This module is what a client needs — framing, :class:`ServiceError`,
the blocking :class:`ServiceClient` and the :class:`AsyncServiceClient`
— and imports neither the solver nor asyncio (the async client imports
it when used).  The server, :class:`VerificationService`, lives in
:mod:`repro.core.server`; its names resolve here on first use, so
``python -m repro.core.service`` still starts it.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    import asyncio

__all__ = [
    "VerificationService",
    "ServiceClient",
    "AsyncServiceClient",
    "ServiceError",
    "read_frame",
    "write_frame",
]

#: Upper bound on one frame's JSON body — a spec description plus a
#: witness payload is kilobytes; anything near this is a framing error.
MAX_FRAME = 1 << 24


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_frame(payload: Any) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode()
    if len(body) > MAX_FRAME:
        raise ValueError(f"frame of {len(body)} bytes exceeds {MAX_FRAME}")
    return struct.pack(">I", len(body)) + body


async def read_frame(reader: asyncio.StreamReader) -> Any:
    header = await reader.readexactly(4)
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME:
        raise ValueError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    body = await reader.readexactly(length)
    return json.loads(body.decode())


async def write_frame(writer: asyncio.StreamWriter, payload: Any) -> None:
    writer.write(encode_frame(payload))
    await writer.drain()


class ServiceError(Exception):
    """A request-level failure reported to the client (never fatal)."""


# ---------------------------------------------------------------------------
# Clients
# ---------------------------------------------------------------------------


class ServiceClient:
    """Blocking client (tests, scripts): one outstanding request."""

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")
        self._seq = 0

    def request(
        self,
        op: str,
        spec: dict | None = None,
        params: dict | None = None,
        deadline_s: float | None = None,
    ) -> dict:
        self._seq += 1
        payload: dict[str, Any] = {"id": self._seq, "op": op}
        if spec is not None:
            payload["spec"] = spec
        if params is not None:
            payload["params"] = params
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        self._sock.sendall(encode_frame(payload))
        header = self._file.read(4)
        if len(header) < 4:
            raise ConnectionError("server closed the connection")
        (length,) = struct.unpack(">I", header)
        body = self._file.read(length)
        if len(body) < length:
            raise ConnectionError("truncated frame")
        return json.loads(body.decode())

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AsyncServiceClient:
    """Asyncio client: one outstanding request per connection (open
    several connections for concurrency — the load generator does)."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        import asyncio

        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()
        self._seq = 0

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncServiceClient":
        import asyncio

        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(
        self,
        op: str,
        spec: dict | None = None,
        params: dict | None = None,
        deadline_s: float | None = None,
    ) -> dict:
        async with self._lock:
            self._seq += 1
            payload: dict[str, Any] = {"id": self._seq, "op": op}
            if spec is not None:
                payload["spec"] = spec
            if params is not None:
                payload["params"] = params
            if deadline_s is not None:
                payload["deadline_s"] = deadline_s
            await write_frame(self._writer, payload)
            return await read_frame(self._reader)

    async def aclose(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass


def __getattr__(name: str):
    if name in ("VerificationService", "main"):
        from . import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    from .server import main

    main()
