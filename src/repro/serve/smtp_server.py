"""The asyncio SMTP listener: live RFC-5321 sessions into the engine.

One coroutine per connection runs the EHLO/MAIL/RCPT/DATA state machine,
CRLF-strict (a bare LF in a command line is a 500, exactly the kind of
input the simulator never generates), with three defensive budgets:

* per-phase read deadlines (a stalled client gets a 421 and the socket
  closed, so slowloris cannot pin worker state),
* a per-connection session budget,
* a maximum message size enforced *while* reading DATA (an oversized
  message, or one with a line longer than the stream limit, is drained
  and refused with 552, not buffered).

The read deadlines and the session budget are one :class:`_SessionTimer`
per connection, re-armed at each phase, rather than a timeout wrapped
around every read: a read whose bytes are already buffered then
completes without a trip through the event loop.

Envelope addresses are validated with the same
:func:`repro.net.addresses.is_well_formed` the simulated MTA uses — the
live and simulated parsers cannot drift apart because they are the same
function. The DATA acknowledgement comes from
:meth:`~repro.serve.service.LiveCrService.try_submit`: 421 when the
admission queue refuses, otherwise whatever the engine decided *after*
the record hit the fsynced WAL.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Set

from repro.net.addresses import is_well_formed
from repro.net.smtp import Reply
from repro.serve.service import LiveCrService

#: RFC 5321 allows 512-byte command lines; we are a little generous.
MAX_COMMAND_LINE = 1024
#: Upper bound on one message's payload.
DEFAULT_MAX_MESSAGE_BYTES = 1 * 1024 * 1024
#: Too many consecutive garbage commands → drop the session.
MAX_SYNTAX_ERRORS = 10
#: SMTP "too many recipients" — session-only, so not part of ``Reply``.
TOO_MANY_RCPTS = 452

_TEXT = {
    Reply.SERVICE_READY: "repro-cr ESMTP service ready",
    Reply.OK: "ok",
    Reply.CLOSING: "bye",
    Reply.START_MAIL_INPUT: "end data with <CRLF>.<CRLF>",
    Reply.SERVICE_UNAVAILABLE: "service unavailable, try again later",
    Reply.SYNTAX_ERROR: "syntax error",
    Reply.PARAM_SYNTAX: "syntax error in parameters",
    Reply.BAD_SEQUENCE: "bad sequence of commands",
    Reply.MAILBOX_UNAVAILABLE: "mailbox unavailable",
    Reply.RELAY_DENIED: "relaying denied",
    Reply.BLACKLISTED: "rejected",
    Reply.CONTENT_REJECTED: "message exceeds maximum size",
    Reply.DNS_TEMPFAIL: "sender domain lookup deferred",
    TOO_MANY_RCPTS: "too many recipients",
}


class SmtpFrontend:
    """Owns the listening socket and the per-session protocol loops."""

    def __init__(
        self,
        service: LiveCrService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_message_bytes: int = DEFAULT_MAX_MESSAGE_BYTES,
        command_deadline: float = 30.0,
        data_deadline: float = 60.0,
        session_deadline: float = 600.0,
        reply_deadline: float = 15.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.max_message_bytes = max_message_bytes
        self.command_deadline = command_deadline
        self.data_deadline = data_deadline
        self.session_deadline = session_deadline
        #: How long DATA waits for the engine's verdict before tempfailing.
        self.reply_deadline = reply_deadline
        self._server: Optional[asyncio.AbstractServer] = None
        self._sessions: Set[asyncio.Task] = set()
        self._closing = False

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_COMMAND_LINE * 4
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop listening and cancel every open session (no 421: this is
        a shutdown, not a timeout; an unanswered DATA is retried)."""
        if self._server is not None:
            self._closing = True
            self._server.close()
            for task in self._sessions:
                task.cancel()
            await asyncio.gather(*self._sessions, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
            self._closing = False

    # -- session ------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        stats = self.service.stats
        stats.sessions += 1
        stats.sessions_open += 1
        task = asyncio.current_task()
        self._sessions.add(task)
        try:
            try:
                await self._session(reader, writer)
            except (asyncio.TimeoutError, ConnectionError, asyncio.IncompleteReadError):
                # Session budget exhausted or the peer vanished; one
                # best-effort 421 and the socket goes away.
                try:
                    self._reply(writer, Reply.SERVICE_UNAVAILABLE)
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    pass
        except asyncio.CancelledError:
            # Only close()'s cancel (it may land mid-421) ends quietly: a
            # handler task that ends cancelled makes asyncio's stream
            # callback log an error.
            if not self._closing:
                raise
        finally:
            stats.sessions_open -= 1
            self._sessions.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _session(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """The conversation, bounded by one timer; its expiry surfaces as
        ``asyncio.TimeoutError``, any other cancellation propagates."""
        timer = _SessionTimer(self.session_deadline)
        try:
            await self._converse(reader, writer, timer)
        except asyncio.CancelledError:
            if timer.expired:
                raise asyncio.TimeoutError from None
            raise
        finally:
            timer.cancel()

    async def _converse(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        timer: _SessionTimer,
    ) -> None:
        peer = writer.get_extra_info("peername")
        client_ip = peer[0] if peer else ""
        self._reply(writer, Reply.SERVICE_READY)
        await writer.drain()

        greeted = False
        mail_from: Optional[str] = None
        rcpt_to: Optional[str] = None
        syntax_errors = 0

        while True:
            timer.arm(self.command_deadline)
            line = await self._read_line(reader)
            if line is None:
                return  # peer closed or CRLF violation already answered
            if isinstance(line, int):
                self._reply(writer, line)
                await writer.drain()
                syntax_errors += 1
                if syntax_errors > MAX_SYNTAX_ERRORS:
                    return
                continue
            verb, _, argument = line.partition(" ")
            verb = verb.upper()
            argument = argument.strip()

            if verb in ("EHLO", "HELO"):
                greeted = True
                mail_from = rcpt_to = None
                self._reply(writer, Reply.OK, "repro-cr at your service")
            elif verb == "NOOP":
                self._reply(writer, Reply.OK)
            elif verb == "RSET":
                mail_from = rcpt_to = None
                self._reply(writer, Reply.OK)
            elif verb == "QUIT":
                self._reply(writer, Reply.CLOSING)
                await writer.drain()
                return
            elif verb == "MAIL":
                if not greeted or mail_from is not None:
                    self._reply(writer, Reply.BAD_SEQUENCE)
                else:
                    address = _parse_path(argument, "FROM")
                    if address is None:
                        self.service.stats.malformed += 1
                        self._reply(writer, Reply.PARAM_SYNTAX)
                    elif address != "" and not is_well_formed(address):
                        self.service.stats.malformed += 1
                        self._reply(writer, Reply.PARAM_SYNTAX)
                    else:
                        mail_from = address
                        self._reply(writer, Reply.OK)
            elif verb == "RCPT":
                if mail_from is None:
                    self._reply(writer, Reply.BAD_SEQUENCE)
                elif rcpt_to is not None:
                    self._reply(writer, TOO_MANY_RCPTS)
                else:
                    address = _parse_path(argument, "TO")
                    if address is None or not is_well_formed(address):
                        self.service.stats.malformed += 1
                        self._reply(writer, Reply.PARAM_SYNTAX)
                    elif self.service.route(address) is None:
                        self.service.stats.unrouted_rcpts += 1
                        self._reply(writer, Reply.MAILBOX_UNAVAILABLE)
                    else:
                        rcpt_to = address
                        self._reply(writer, Reply.OK)
            elif verb == "DATA":
                if mail_from is None or rcpt_to is None:
                    self._reply(writer, Reply.BAD_SEQUENCE)
                else:
                    code = await self._data(
                        reader, writer, timer, mail_from, rcpt_to, client_ip
                    )
                    self._reply(writer, code)
                    mail_from = rcpt_to = None
            else:
                syntax_errors += 1
                self._reply(writer, Reply.SYNTAX_ERROR)
                if syntax_errors > MAX_SYNTAX_ERRORS:
                    await writer.drain()
                    return
            await writer.drain()

    async def _data(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        timer: _SessionTimer,
        mail_from: str,
        rcpt_to: str,
        client_ip: str,
    ) -> int:
        timer.arm(self.data_deadline)
        self._reply(writer, Reply.START_MAIL_INPUT)
        await writer.drain()
        size = 0
        subject = ""
        in_headers = True
        oversized = False
        while True:
            try:
                raw = await reader.readuntil(b"\n")
            except asyncio.LimitOverrunError as exc:
                await _skip_line(reader, exc.consumed)
                oversized = True  # no legal line is this long
                continue
            if raw == b".\r\n":
                break
            if raw.startswith(b".."):
                raw = raw[1:]  # dot-unstuffing
            size += len(raw)
            if size > self.max_message_bytes:
                oversized = True  # keep draining to the terminating dot
            if in_headers and not oversized:
                stripped = raw.rstrip(b"\r\n")
                if not stripped:
                    in_headers = False
                elif stripped.lower().startswith(b"subject:"):
                    subject = stripped[8:].strip().decode("utf-8", "replace")[:200]
        if oversized:
            return Reply.CONTENT_REJECTED
        record = {
            "kind": "mail",
            "mail_from": mail_from,
            "rcpt_to": rcpt_to,
            "size": size,
            "client_ip": client_ip,
            "subject": subject,
        }
        future = self.service.try_submit(record)
        if future is None:
            return Reply.SERVICE_UNAVAILABLE
        # The reply wait has its own deadline, whose expiry tempfails this
        # message but not the session, so the session timer falls back to
        # the budget meanwhile.
        timer.arm(self.session_deadline)
        expiry = asyncio.get_running_loop().call_later(
            self.reply_deadline, _time_out, future
        )
        try:
            return await future
        except asyncio.TimeoutError:
            # The record may still land (it is queued); the client retries
            # against the at-least-once contract.
            self.service.stats.refused_deadline += 1
            return Reply.SERVICE_UNAVAILABLE
        finally:
            expiry.cancel()

    async def _read_line(self, reader: asyncio.StreamReader):
        """One CRLF-terminated command line, decoded.

        Returns the string without its CRLF, an ``int`` reply code for a
        protocol violation the caller should send (bare LF, overlong
        line), or ``None`` when the connection ended."""
        try:
            raw = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as exc:
            await _skip_line(reader, exc.consumed)
            return Reply.SYNTAX_ERROR
        if not raw.endswith(b"\r\n"):
            return Reply.SYNTAX_ERROR  # bare LF: CRLF-strict
        if len(raw) > MAX_COMMAND_LINE:
            return Reply.SYNTAX_ERROR
        try:
            return raw[:-2].decode("ascii")
        except UnicodeDecodeError:
            return Reply.SYNTAX_ERROR

    def _reply(
        self, writer: asyncio.StreamWriter, code: int, text: Optional[str] = None
    ) -> None:
        message = text if text is not None else _TEXT.get(code, "")
        writer.write(f"{code} {message}\r\n".encode("ascii"))


class _SessionTimer:
    """The one deadline of an SMTP session, re-armed at each phase.

    :meth:`arm` bounds the current phase, capped by the session budget
    fixed at creation. It only stores the new due time unless that is
    earlier than the pending ``loop.call_at`` handle; a handle that fires
    early re-schedules itself at the stored time. A handle that fires at
    or past it marks :attr:`expired` and cancels the session's task, so
    the session can tell its own timeout from an external cancellation.
    """

    def __init__(self, budget: float) -> None:
        self._loop = asyncio.get_running_loop()
        self._task = asyncio.current_task()
        self._cap = self._due = self._loop.time() + budget
        self._handle = self._loop.call_at(self._due, self._fire)
        self.expired = False

    def arm(self, seconds: float) -> None:
        self._due = min(self._loop.time() + seconds, self._cap)
        if self._due < self._handle.when():
            self._handle.cancel()
            self._handle = self._loop.call_at(self._due, self._fire)

    def cancel(self) -> None:
        self._handle.cancel()

    def _fire(self) -> None:
        if self._due > self._handle.when():
            self._handle = self._loop.call_at(self._due, self._fire)
        else:
            self.expired = True
            self._task.cancel()


def _time_out(future: asyncio.Future) -> None:
    """Fail a reply still pending at its deadline."""
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


async def _skip_line(reader: asyncio.StreamReader, consumed: int) -> None:
    """Discard a line the stream limit refused, through its LF.

    *consumed* is the refused prefix (``LimitOverrunError.consumed``),
    which is already buffered. At EOF it stops; the next read sees it."""
    while True:
        try:
            await reader.readexactly(consumed)
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed
        except asyncio.IncompleteReadError:
            return


def _parse_path(argument: str, keyword: str) -> Optional[str]:
    """Extract the address from ``FROM:<a@b>`` / ``TO:<a@b>`` syntax.

    Returns the address (``""`` for the null reverse-path ``<>``), or
    ``None`` on syntax we refuse. ESMTP parameters after the path are
    tolerated and ignored."""
    prefix = keyword + ":"
    if not argument.upper().startswith(prefix):
        return None
    rest = argument[len(prefix):].strip()
    if not rest.startswith("<"):
        return None
    end = rest.find(">")
    if end < 0:
        return None
    return rest[1:end]


__all__ = ["SmtpFrontend", "DEFAULT_MAX_MESSAGE_BYTES", "MAX_COMMAND_LINE"]
