"""Bundled client for the pool's NDJSON-over-HTTP front door.

:class:`PoolClient` speaks the ``POST /jobs`` streaming protocol of
:mod:`repro.pool.server`: submissions trickle out as NDJSON lines on
the request body, lifecycle events stream back on the response, and the
request ends with a TCP half-close (``write_eof``).  Submitting and
reading are independent coroutines so a caller can pipeline thousands
of in-flight jobs over one connection.

Helpers cover the common shapes: :func:`run_jobs` (submit a batch,
stream events, return the ``batch_done`` summary), :func:`get_json`
(the ``GET`` endpoints) and :func:`request_shutdown`.  Everything is
stdlib asyncio; the CLI (``python -m repro submit``) and the CI smoke
test are both built on this module.
"""

from __future__ import annotations

import asyncio
import json
from typing import AsyncIterator, Callable, Dict, Optional, Sequence

from repro.runtime.jobs import StreamJob


class ClientError(Exception):
    """Connection or protocol failure talking to a pool server."""


async def _read_response_head(reader: asyncio.StreamReader) -> str:
    status_line = await reader.readline()
    if not status_line:
        raise ClientError("server closed the connection before responding")
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
    return status_line.decode("ascii", "replace").strip()


class PoolClient:
    """One streaming ``POST /jobs`` connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._status: Optional[str] = None

    async def __aenter__(self) -> "PoolClient":
        await self.open()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def open(self, tenant: Optional[str] = None) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        head = (
            f"POST /jobs HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/x-ndjson\r\n"
        )
        if tenant:
            head += f"X-Tenant: {tenant}\r\n"
        head += "Connection: close\r\n\r\n"
        self._writer.write(head.encode("ascii"))
        await self._writer.drain()

    async def submit(
        self, job, tenant: Optional[str] = None
    ) -> None:
        """Send one submission line (StreamJob or already-a-dict)."""
        if self._writer is None:
            raise ClientError("client is not open")
        spec = job.to_dict() if isinstance(job, StreamJob) else job
        line: Dict = {"job": spec}
        if tenant is not None:
            line["tenant"] = tenant
        self._writer.write((json.dumps(line) + "\n").encode("utf-8"))
        await self._writer.drain()

    async def finish_submissions(self) -> None:
        """Half-close: no more submissions, keep streaming events."""
        if self._writer is None:
            raise ClientError("client is not open")
        if self._writer.can_write_eof():
            self._writer.write_eof()

    async def events(self) -> AsyncIterator[Dict]:
        """Yield response events until ``batch_done`` (inclusive)."""
        if self._reader is None:
            raise ClientError("client is not open")
        if self._status is None:
            self._status = await _read_response_head(self._reader)
            if "200" not in self._status:
                raise ClientError(f"server said {self._status!r}")
        while True:
            line = await self._reader.readline()
            if not line:
                return
            if not line.strip():
                continue
            event = json.loads(line)
            yield event
            if event.get("event") == "batch_done":
                return

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = self._writer = None


# ----------------------------------------------------------------------
# one-shot helpers
# ----------------------------------------------------------------------
async def run_jobs(
    host: str,
    port: int,
    jobs: Sequence[StreamJob],
    tenant: Optional[str] = None,
    on_event: Optional[Callable[[Dict], None]] = None,
) -> Dict:
    """Submit a batch, stream its events, return the batch summary.

    Submission and event consumption run concurrently, so arbitrarily
    large batches pipeline instead of deadlocking on TCP buffers.
    """
    client = PoolClient(host, port)
    await client.open(tenant=tenant)
    try:
        async def feed() -> None:
            for job in jobs:
                await client.submit(job)
            await client.finish_submissions()

        feeder = asyncio.get_running_loop().create_task(feed())
        summary: Dict = {}
        async for event in client.events():
            if on_event is not None:
                on_event(event)
            if event.get("event") == "batch_done":
                summary = event
        await feeder
        if not summary:
            raise ClientError(
                "connection closed before batch_done "
                "(server shut down mid-batch?)"
            )
        return summary
    finally:
        await client.close()


def run_jobs_sync(
    host: str,
    port: int,
    jobs: Sequence[StreamJob],
    tenant: Optional[str] = None,
    on_event: Optional[Callable[[Dict], None]] = None,
) -> Dict:
    """Blocking wrapper over :func:`run_jobs` for CLI / script use."""
    return asyncio.run(run_jobs(host, port, jobs, tenant, on_event))


async def get_json(host: str, port: int, path: str) -> Dict:
    """Fetch one of the GET endpoints (``/healthz``, ``/stats``)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            "Connection: close\r\n\r\n".encode("ascii")
        )
        await writer.drain()
        status = await _read_response_head(reader)
        body = await reader.read()
        if "200" not in status:
            raise ClientError(f"GET {path}: {status!r}")
        return json.loads(body)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def stream_events(
    host: str, port: int, limit: Optional[int] = None
) -> AsyncIterator[Dict]:
    """Tail the ``GET /events`` NDJSON firehose.

    Yields every pool event (all tenants) until the server closes the
    stream, or after ``limit`` events when given (``python -m repro
    obs tail --connect`` uses this).
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET /events HTTP/1.1\r\nHost: {host}:{port}\r\n"
            "Connection: close\r\n\r\n".encode("ascii")
        )
        await writer.drain()
        status = await _read_response_head(reader)
        if "200" not in status:
            raise ClientError(f"GET /events: {status!r}")
        seen = 0
        while limit is None or seen < limit:
            line = await reader.readline()
            if not line:
                return
            if not line.strip():
                continue
            yield json.loads(line)
            seen += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def post_json(host: str, port: int, path: str) -> object:
    """POST to one of the bodyless endpoints (``/debug/...``)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"POST {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            "Content-Length: 0\r\nConnection: close\r\n\r\n"
            .encode("ascii")
        )
        await writer.drain()
        status = await _read_response_head(reader)
        body = await reader.read()
        if "200" not in status:
            raise ClientError(f"POST {path}: {status!r}")
        return json.loads(body)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def request_shutdown(host: str, port: int) -> None:
    """Ask a pool server to drain and exit (the SIGTERM path over TCP)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"POST /shutdown HTTP/1.1\r\nHost: {host}:{port}\r\n"
            "Content-Length: 0\r\nConnection: close\r\n\r\n"
            .encode("ascii")
        )
        await writer.drain()
        await _read_response_head(reader)
        await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
