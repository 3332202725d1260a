"""Shared plumbing for the live-service test files.

The suite runs without pytest-asyncio: each test is a plain function
that drives its own ``asyncio.run``. A :class:`LiveCrService` binds its
queue and futures to the loop that first touches them, so services are
always built *inside* the coroutine under test — :func:`live_stack`
packages that, plus both frontends, as an async context manager.

:func:`live_stack` also fails the test when the event loop reported an
error while the stack ran. asyncio only logs an exception that escapes a
connection handler ("Unhandled exception in client_connected_cb"), so
without this a session that dies on a bug looks to a test like a client
that merely got no reply.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
from typing import Optional, Sequence, Tuple

from repro.serve.service import LiveCrService
from repro.serve.smtp_server import SmtpFrontend
from repro.serve.web import WebFrontend


@contextlib.asynccontextmanager
async def live_stack(tmp_path, **service_kwargs):
    """A recovered, started service with SMTP and web frontends bound to
    OS-assigned loopback ports. Yields ``(service, smtp, web)``.

    Raises ``AssertionError`` on exit if the loop's exception handler
    fired while the stack was up."""
    loop = asyncio.get_running_loop()
    errors: list = []
    previous_handler = loop.get_exception_handler()
    loop.set_exception_handler(lambda _loop, context: errors.append(context))
    service_kwargs.setdefault("time_scale", 200.0)
    service_kwargs.setdefault("wal_path", str(tmp_path / "serve.wal"))
    service = LiveCrService(**service_kwargs)
    service.recover()
    await service.start()
    smtp = SmtpFrontend(service)
    web = WebFrontend(service)
    await smtp.start()
    await web.start()
    try:
        yield service, smtp, web
    finally:
        await smtp.close()
        await web.close()
        await service.close()
        # Python < 3.11 reports a failed handler task only when the task
        # is collected ("Task exception was never retrieved").
        gc.collect()
        loop.set_exception_handler(previous_handler)
    if errors:
        raise AssertionError(
            "event loop reported errors: "
            + "; ".join(
                f"{c.get('message')}: {c.get('exception')!r}" for c in errors
            )
        )


class SmtpClient:
    """A tiny scripted SMTP client for protocol-level assertions."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> str:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )
        return await self.readline()

    async def readline(self) -> str:
        line = await asyncio.wait_for(self.reader.readline(), 10.0)
        return line.decode().rstrip("\r\n")

    async def send_raw(self, data: bytes) -> None:
        self.writer.write(data)
        await self.writer.drain()

    async def command(self, line: str) -> str:
        """Send one CRLF-terminated command, return the reply line."""
        await self.send_raw(line.encode() + b"\r\n")
        return await self.readline()

    async def code(self, line: str) -> int:
        return int((await self.command(line))[:3])

    async def send_message(
        self,
        mail_from: str,
        rcpt_to: str,
        subject: str = "hello",
        body: str = "body text",
    ) -> int:
        """EHLO-less envelope + DATA; returns the final reply code.
        Any 4xx/5xx during the envelope short-circuits (like a real MTA)."""
        for command in (f"MAIL FROM:<{mail_from}>", f"RCPT TO:<{rcpt_to}>", "DATA"):
            reply = await self.code(command)
            if reply >= 400:
                await self.command("RSET")
                return reply
        await self.send_raw(
            f"Subject: {subject}\r\n\r\n{body}\r\n.\r\n".encode()
        )
        return int((await self.readline())[:3])

    async def quit(self) -> None:
        with contextlib.suppress(Exception):
            await self.command("QUIT")
        self.close()

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.reader = self.writer = None


async def ehlo_client(port: int) -> SmtpClient:
    client = SmtpClient(port)
    await client.connect()
    await client.command("EHLO test-harness")
    return client


async def http_request(
    port: int,
    method: str,
    path: str,
    body: Optional[dict] = None,
    host: str = "127.0.0.1",
) -> Tuple[int, dict]:
    """One-shot HTTP exchange against the web frontend."""
    reader, writer = await asyncio.open_connection(host, port)
    payload = json.dumps(body).encode() if body is not None else b""
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode()
        + payload
    )
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), 10.0)
    writer.close()
    head, _, resp_body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ")[1]), json.loads(resp_body)


def pick_targets(service: LiveCrService) -> Tuple[str, Sequence[str]]:
    """A live-generator sender and the recipient list of one company."""
    directory = service.directory()
    sender = f"tester@{directory['sender_domains'][0]}"
    return sender, directory["companies"][0]["users"]


__all__ = [
    "SmtpClient",
    "ehlo_client",
    "http_request",
    "live_stack",
    "pick_targets",
]
