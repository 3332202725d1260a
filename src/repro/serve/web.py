"""The HTTP sidecar: CAPTCHA solves, digest actions, health, and ops.

A deliberately tiny hand-rolled HTTP/1.1 server (the container has no web
framework, and the surface is six routes). Reads are JSON straight off
the in-memory engine; *mutations* never touch the engine directly — they
become ``{"kind": "web", ...}`` records submitted through the same
admission queue and WAL as SMTP mail, so a CAPTCHA solve enjoys the exact
same durability and replay guarantees as an accepted message, and the
backpressure story is uniform (a full queue means 503 here, 421 on SMTP).

Routes::

    GET  /healthz            liveness + queue depth + shed level
    GET  /readyz             503 until WAL replay has reconciled
    GET  /stats              full counter dump + ledger reconciliation
    GET  /directory          companies/users/sender domains (for sstress)
    POST /challenge/open     {company, challenge_id}
    POST /challenge/attempt  {company, challenge_id, success}
    POST /challenge/solve    {company, challenge_id}
    POST /digest/release     {company, user, msg_id}
    POST /digest/delete      {company, user, msg_id}
    POST /shed               {level}   — pin the degradation ladder (ops)

Connections are one-shot (``Connection: close``): the clients are the
load generator and curl, neither needs keep-alive.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple

from repro.net.smtp import Reply
from repro.serve.admission import MAX_SHED_LEVEL
from repro.serve.service import LiveCrService

MAX_HEADER_BYTES = 8 * 1024
MAX_BODY_BYTES = 64 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Engine reply code → HTTP status for journaled web mutations.
_REPLY_STATUS = {
    Reply.OK: 200,
    Reply.MAILBOX_UNAVAILABLE: 404,
}

#: (action, required body fields) per mutation route.
_MUTATIONS = {
    "/challenge/open": ("open", ("company", "challenge_id")),
    "/challenge/attempt": ("attempt", ("company", "challenge_id")),
    "/challenge/solve": ("solve", ("company", "challenge_id")),
    "/digest/release": ("release", ("company", "user", "msg_id")),
    "/digest/delete": ("delete", ("company", "user", "msg_id")),
}


class WebFrontend:
    """Health, stats, and journaled web actions over HTTP."""

    def __init__(
        self,
        service: LiveCrService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        request_deadline: float = 30.0,
        reply_deadline: float = 15.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.request_deadline = request_deadline
        self.reply_deadline = reply_deadline
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_HEADER_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection ----------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await asyncio.wait_for(
                self._request(reader), self.request_deadline
            )
        except asyncio.TimeoutError:
            status, payload = 408, {"error": "request timeout"}
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        except Exception:  # a handler bug must not kill the server
            status, payload = 500, {"error": "internal error"}
        body = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, dict]:
        try:
            raw = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:  # the stream limit is the bound
            return 413, {"error": "headers too large"}
        head = raw.decode("latin-1")
        request_line, _, header_block = head.partition("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3:
            return 400, {"error": "malformed request line"}
        method, target, _version = parts
        path = target.split("?", 1)[0]
        content_length = 0
        for header in header_block.split("\r\n"):
            name, _, value = header.partition(":")
            if name.strip().lower() == "content-length":
                value = value.strip()
                # Digits only: no sign, no "_", nothing int() would forgive.
                if not (value.isascii() and value.isdigit()):
                    return 400, {"error": "bad content-length"}
                content_length = int(value)
        if content_length > MAX_BODY_BYTES:
            return 413, {"error": "body too large"}
        body = b""
        if content_length:
            body = await reader.readexactly(content_length)
        return await self._route(method, path, body)

    # -- routing -------------------------------------------------------------

    async def _route(self, method: str, path: str, body: bytes) -> Tuple[int, dict]:
        service = self.service
        if method == "GET":
            if path == "/healthz":
                return 200, service.health()
            if path == "/readyz":
                if service.ready:
                    return 200, {"ready": True}
                return 503, {"ready": False}
            if path == "/stats":
                return 200, service.stats_view()
            if path == "/directory":
                return 200, service.directory()
            return 404, {"error": "no such route"}
        if method != "POST":
            return 405, {"error": "method not allowed"}

        try:
            payload = json.loads(body.decode() or "{}")
        except (ValueError, UnicodeDecodeError):
            return 400, {"error": "body is not JSON"}
        if not isinstance(payload, dict):
            return 400, {"error": "body must be a JSON object"}

        if path == "/shed":
            level = payload.get("level")
            if not isinstance(level, int):
                return 400, {"error": "level must be an integer"}
            pinned = service.ladder.pin(level)
            service._apply_shed_level(pinned)
            return 200, {"level": pinned, "max_level": MAX_SHED_LEVEL}

        if path not in _MUTATIONS:
            return 404, {"error": "no such route"}
        action, required = _MUTATIONS[path]
        missing = [name for name in required if name not in payload]
        if missing:
            return 400, {"error": f"missing fields: {', '.join(missing)}"}
        record = {"kind": "web", "action": action}
        for name in required:
            record[name] = payload[name]
        if action == "attempt":
            record["success"] = bool(payload.get("success"))
        future = service.try_submit(record)
        if future is None:
            return 503, {"error": "admission queue full, retry later"}
        try:
            code = await asyncio.wait_for(future, self.reply_deadline)
        except asyncio.TimeoutError:
            service.counters["admission.refused_deadline"] += 1
            return 503, {"error": "engine deadline expired, retry later"}
        status = _REPLY_STATUS.get(code, 500)
        return status, {"applied": status == 200, "code": int(code)}


__all__ = ["WebFrontend"]
