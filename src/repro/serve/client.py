"""Async client for the join service protocol.

A thin line-protocol wrapper: connect, send one-line JSON requests,
collect the responses (including a ``join``'s page stream).  This is
what the load harness and the tests speak; it has no engine
dependency at all.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PAIR_STRUCT,
    PAIRS_I8,
    ProtocolError,
    decode_message,
    encode_message,
    is_integer,
)


class ServeClient:
    """One connection to a running join server."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    # ------------------------------------------------------------------
    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_socket: Optional[str] = None,
    ) -> "ServeClient":
        if unix_socket is not None:
            reader, writer = await asyncio.open_unix_connection(
                unix_socket, limit=MAX_LINE_BYTES
            )
        else:
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_LINE_BYTES
            )
        return cls(reader, writer)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass  # server already gone (e.g. after a shutdown op)

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, exc_type: object, exc: object, tb: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one op and return its single response."""
        self._writer.write(encode_message(message))
        await self._writer.drain()
        return await self._read_response()

    async def _read_response(self) -> Dict[str, Any]:
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_message(line)

    async def _read_page_body(self, header: Dict[str, Any]) -> bytes:
        """The raw pairs a binary page *header* announces.

        The header is outside input: it is held to ``bytes == 16 * n``
        and to the line limit before a single byte is awaited.
        """
        n, size = header.get("n"), header["bytes"]
        if (
            not is_integer(n)
            or not is_integer(size)
            or n < 0
            or size != PAIR_STRUCT.size * n
            or size > MAX_LINE_BYTES
        ):
            raise ProtocolError(
                f"bad binary page header: n={n!r}, bytes={size!r} "
                f"(want bytes == {PAIR_STRUCT.size} * n <= {MAX_LINE_BYTES})"
            )
        try:
            return await self._reader.readexactly(size)
        except asyncio.IncompleteReadError as exc:
            raise ConnectionError("server closed the connection") from exc

    # ------------------------------------------------------------------
    # typed helpers
    # ------------------------------------------------------------------
    async def ping(self) -> Dict[str, Any]:
        return await self.request({"op": "ping"})

    async def register(self, name: str, **spec: Any) -> Dict[str, Any]:
        return await self.request({"op": "register", "name": name, **spec})

    async def join(
        self,
        left: str,
        right: str,
        *,
        memory_mb: Optional[float] = None,
        include_pairs: bool = False,
        page_size: Optional[int] = None,
    ) -> Tuple[Dict[str, Any], List[Tuple[int, int]]]:
        """Run a join; returns ``(summary, pairs)``.

        *pairs* is empty unless ``include_pairs=True``; the summary is
        the final message (or the error response, with ``ok=False``).
        The request always says this client reads the binary page frame
        (``protocol``: header line + raw ``<qq`` pairs, decoded here with
        ``struct.iter_unpack``); JSON pages are understood as well, so a
        server that ignores the key is served the same.
        """
        message: Dict[str, Any] = {
            "op": "join",
            "left": left,
            "right": right,
            "include_pairs": include_pairs,
            "pairs_format": PAIRS_I8,
        }
        if memory_mb is not None:
            message["memory_mb"] = memory_mb
        if page_size is not None:
            message["page_size"] = page_size
        self._writer.write(encode_message(message))
        await self._writer.drain()
        pairs: List[Tuple[int, int]] = []
        while True:
            response = await self._read_response()
            if not response.get("ok") or response.get("done"):
                return response, pairs
            if "bytes" in response:
                pairs.extend(
                    PAIR_STRUCT.iter_unpack(await self._read_page_body(response))
                )
                continue
            page = response.get("pairs")
            if page is None:
                raise ProtocolError(
                    f"unexpected mid-join message: {sorted(response)}"
                )
            pairs.extend((int(a), int(b)) for a, b in page)

    async def metrics_text(self) -> str:
        response = await self.request({"op": "metrics"})
        if not response.get("ok"):
            raise ProtocolError(f"metrics scrape failed: {response}")
        return str(response["text"])

    async def stats(self) -> Dict[str, Any]:
        return await self.request({"op": "stats"})

    async def trace(self, query_id: int) -> Dict[str, Any]:
        return await self.request({"op": "trace", "query_id": query_id})

    async def shutdown(self) -> Dict[str, Any]:
        return await self.request({"op": "shutdown"})


__all__ = ["ServeClient"]
