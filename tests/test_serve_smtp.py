"""Protocol-level tests of the asyncio SMTP frontend.

Focus areas: the command state machine, CRLF strictness (the live
parser's injection surface), shared address validation with the
simulated MTA, size limits, the per-phase and session deadlines, and
the WAL-then-reply ordering visible as "every 250 is in the ledger".
"""

from __future__ import annotations

import asyncio
import contextlib

from repro.net.addresses import MAX_LOCAL_LENGTH
from tests.serve_harness import SmtpClient, ehlo_client, live_stack, pick_targets


def test_session_state_machine(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, _web):
            sender, users = pick_targets(service)
            client = SmtpClient(smtp.port)
            greeting = await client.connect()
            assert greeting.startswith("220 ")

            # Envelope commands before EHLO / out of order: 503.
            assert await client.code(f"MAIL FROM:<{sender}>") == 503
            assert await client.code("EHLO harness") == 250
            assert await client.code(f"RCPT TO:<{users[0]}>") == 503  # no MAIL
            assert await client.code("DATA") == 503

            assert await client.code(f"MAIL FROM:<{sender}>") == 250
            assert await client.code(f"MAIL FROM:<{sender}>") == 503  # twice
            assert await client.code("RSET") == 250
            assert await client.code(f"MAIL FROM:<{sender}>") == 250
            assert await client.code(f"RCPT TO:<{users[0]}>") == 250
            # One recipient per transaction: the second gets 452.
            assert await client.code(f"RCPT TO:<{users[1]}>") == 452
            assert await client.code("NOOP") == 250
            reply = await client.command("QUIT")
            assert reply.startswith("221 ")
            client.close()

    asyncio.run(scenario())


def test_crlf_strict_and_shared_address_hardening(tmp_path):
    """Bare-LF commands are 500; addresses with control bytes, CR/LF
    splices, or overlong locals are 501 — decided by the same
    ``is_well_formed`` the simulated MTA uses."""

    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, _web):
            sender, users = pick_targets(service)
            client = await ehlo_client(smtp.port)

            # Bare LF: rejected at the line reader, never parsed.
            await client.send_raw(b"MAIL FROM:<a@ext-0.livegen.example>\n")
            assert (await client.readline()).startswith("500 ")

            # Control bytes / splices inside the path: 501.
            for evil in (
                "MAIL FROM:<a\x00@ext-0.livegen.example>",
                "MAIL FROM:<a\t@ext-0.livegen.example>",
                f"MAIL FROM:<{'x' * (MAX_LOCAL_LENGTH + 1)}@ext-0.livegen.example>",
            ):
                assert await client.code(evil) == 501
            # A CR smuggled mid-line survives until the parser — and dies.
            await client.send_raw(
                b"MAIL FROM:<a@b.com\rRCPT TO:<evil@x.com>>\r\n"
            )
            assert (await client.readline()).startswith("501 ")

            # Missing angle brackets / keyword: 501.
            assert await client.code("MAIL a@b.com") == 501
            assert await client.code("MAIL FROM:a@b.com") == 501

            assert service.stats.malformed >= 4
            # The session survives all of it and still accepts real mail.
            assert await client.send_message(sender, users[0]) == 250
            await client.quit()

    asyncio.run(scenario())


def test_unknown_recipient_refused_at_rcpt(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, _web):
            sender, _users = pick_targets(service)
            client = await ehlo_client(smtp.port)
            assert await client.code(f"MAIL FROM:<{sender}>") == 250
            assert await client.code("RCPT TO:<ghost@nowhere.invalid>") == 550
            assert service.stats.unrouted_rcpts == 1
            await client.quit()
            # Nothing was accepted: nothing to reconcile against.
            assert service.stats.acked == 0
            assert service.reconcile()["reconciled"]

    asyncio.run(scenario())


def test_oversized_message_rejected_not_buffered(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, _web):
            smtp.max_message_bytes = 2048
            sender, users = pick_targets(service)
            client = await ehlo_client(smtp.port)
            assert await client.code(f"MAIL FROM:<{sender}>") == 250
            assert await client.code(f"RCPT TO:<{users[0]}>") == 250
            assert await client.code("DATA") == 354
            big = "y" * 100 + "\r\n"
            await client.send_raw(("Subject: big\r\n\r\n" + big * 40).encode())
            await client.send_raw(b".\r\n")
            assert (await client.readline()).startswith("552 ")
            # The refused message never reached the WAL or the ledger.
            assert service.wal.appended_seq == 0
            # Session still works; dot-stuffed bodies are unstuffed.
            for cmd, expect in (
                (f"MAIL FROM:<{sender}>", 250),
                (f"RCPT TO:<{users[0]}>", 250),
                ("DATA", 354),
            ):
                assert await client.code(cmd) == expect
            await client.send_raw(b"Subject: ok\r\n\r\n..dotted line\r\n.\r\n")
            assert (await client.readline()).startswith("250 ")
            await client.quit()
            assert service.stats.acked == 1

    asyncio.run(scenario())


def test_null_sender_envelope_reaches_engine_verdict(tmp_path):
    """``MAIL FROM:<>`` is legal SMTP; the engine's MTA-IN decides its
    fate (malformed envelope → 501 at DATA), and the refusal is WAL'd
    and accounted like any other applied record."""

    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, _web):
            _sender, users = pick_targets(service)
            client = await ehlo_client(smtp.port)
            assert await client.code("MAIL FROM:<>") == 250
            assert await client.code(f"RCPT TO:<{users[0]}>") == 250
            assert await client.code("DATA") == 354
            await client.send_raw(b"Subject: bounce\r\n\r\nhi\r\n.\r\n")
            code = int((await client.readline())[:3])
            assert code in (250, 501)
            await client.quit()
            report = service.reconcile()
            assert report["reconciled"]
            assert report["applied_mail"] == 1
            if code == 501:
                assert service.stats.mta_dropped == 1

    asyncio.run(scenario())


def test_garbage_flood_disconnects(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (_service, smtp, _web):
            client = SmtpClient(smtp.port)
            await client.connect()
            for _ in range(10):
                assert await client.code("BOGUS") == 500
            # The 11th pushes past MAX_SYNTAX_ERRORS: reply then hangup.
            await client.send_raw(b"BOGUS\r\n")
            assert (await client.readline()).startswith("500 ")
            assert await client.reader.read() == b""  # connection closed
            client.close()

    asyncio.run(scenario())


def test_every_250_is_durable_before_reply(tmp_path):
    """WAL-then-reply, observed from the client side: at the instant a
    250 arrives, the on-disk WAL already holds at least that many
    records (scanned read-only, like a concurrent observer would)."""

    async def scenario():
        async with live_stack(tmp_path, batch_max=4) as (service, smtp, _web):
            from repro.serve.wal import scan_payloads

            sender, users = pick_targets(service)
            client = await ehlo_client(smtp.port)
            acked = 0
            for i in range(10):
                code = await client.send_message(
                    sender, users[i % len(users)], subject=f"SPAM: {i}"
                )
                if code == 250:
                    acked += 1
                    records, _ = scan_payloads(service.wal.path)
                    assert len(records) >= acked
            await client.quit()
            assert acked == 10

    asyncio.run(scenario())


def test_overlong_body_line_is_refused_not_fatal(tmp_path):
    """A DATA line longer than the stream limit is drained to the dot and
    refused like an oversized message; the session lives on."""

    async def scenario():
        async with live_stack(tmp_path, preset="tiny") as (service, smtp, _web):
            sender, users = pick_targets(service)
            client = await ehlo_client(smtp.port)
            for cmd, expect in (
                (f"MAIL FROM:<{sender}>", 250),
                (f"RCPT TO:<{users[0]}>", 250),
                ("DATA", 354),
            ):
                assert await client.code(cmd) == expect
            await client.send_raw(
                b"Subject: long\r\n\r\n" + b"z" * 20_000 + b"\r\nafter\r\n.\r\n"
            )
            assert (await client.readline()).startswith("552 ")
            assert service.wal.appended_seq == 0  # never journaled
            assert await client.send_message(sender, users[0]) == 250
            await client.quit()

    asyncio.run(scenario())


def test_overlong_command_line_keeps_replies_in_step(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (_service, smtp, _web):
            client = await ehlo_client(smtp.port)
            assert await client.code("NOOP " + "x" * 6_000) == 500
            assert await client.code("NOOP") == 250
            await client.quit()

    asyncio.run(scenario())


# -- deadlines ------------------------------------------------------------------
#
# Sub-second deadlines set on the started frontend; each session reads
# them when it starts, so they apply to every connection made after.


async def _read_until_closed(client: SmtpClient) -> list:
    """Every reply line the server sends before it closes the socket."""
    lines = []
    while True:
        line = await client.readline()
        if not line:
            return lines
        lines.append(line)


def test_stalled_command_phase_gets_421_and_close(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, _web):
            smtp.command_deadline = 0.2
            client = await ehlo_client(smtp.port)
            loop = asyncio.get_running_loop()
            started = loop.time()
            lines = await _read_until_closed(client)
            assert [line[:4] for line in lines] == ["421 "]
            assert loop.time() - started < 5.0
            client.close()
            assert service.stats.sessions_open == 0

    asyncio.run(scenario())


def test_stalled_data_body_gets_421(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, _web):
            smtp.data_deadline = 0.2
            sender, users = pick_targets(service)
            client = await ehlo_client(smtp.port)
            for cmd, expect in (
                (f"MAIL FROM:<{sender}>", 250),
                (f"RCPT TO:<{users[0]}>", 250),
                ("DATA", 354),
            ):
                assert await client.code(cmd) == expect
            await client.send_raw(b"Subject: stalled\r\n\r\nhalf a body\r\n")
            lines = await _read_until_closed(client)
            assert [line[:4] for line in lines] == ["421 "]
            client.close()
            assert service.wal.appended_seq == 0

    asyncio.run(scenario())


def test_session_budget_caps_a_trickling_client(tmp_path):
    """Every command arrives well inside the command deadline, yet the
    session budget still ends the conversation."""

    async def scenario():
        async with live_stack(tmp_path) as (_service, smtp, _web):
            smtp.session_deadline = 0.6
            client = await ehlo_client(smtp.port)
            loop = asyncio.get_running_loop()
            started = loop.time()
            codes = []
            while not codes or codes[-1] == 250:
                await asyncio.sleep(0.05)
                with contextlib.suppress(ConnectionError):
                    await client.send_raw(b"NOOP\r\n")
                codes.append(int((await client.readline())[:3]))
            assert codes[-1] == 421
            assert len(codes) >= 4  # the trickle was being served
            assert 0.5 < loop.time() - started < 5.0
            assert await client.reader.read() == b""
            client.close()

    asyncio.run(scenario())


def test_reply_deadline_tempfails_and_the_session_continues(tmp_path):
    async def scenario():
        async with live_stack(tmp_path, engine_delay=1.0) as (service, smtp, _web):
            sender, users = pick_targets(service)
            client = await ehlo_client(smtp.port)
            # The first message finds the worker idle; the second waits
            # behind its simulated engine time and outlives the deadline.
            assert await client.send_message(sender, users[0]) == 250
            smtp.reply_deadline = 0.2
            assert await client.send_message(sender, users[0]) == 421
            assert service.stats.refused_deadline == 1
            assert await client.code("NOOP") == 250
            await client.quit()

    asyncio.run(scenario())


def test_server_close_cancels_open_sessions_without_a_timeout_reply(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, _web):
            client = await ehlo_client(smtp.port)
            assert service.stats.sessions_open == 1
            await asyncio.wait_for(smtp.close(), 5.0)
            assert service.stats.sessions_open == 0
            # Closed, and not with the 421 a timed-out session gets.
            assert await client.reader.read() == b""
            client.close()

    asyncio.run(scenario())


def test_tasks_per_connection_do_not_grow_with_messages(tmp_path):
    """The session's deadlines cost no Task per read: a connection that
    carries 20 messages creates the same Tasks as one that carries one
    (the loop's accept and the session handler)."""

    async def exchange(service, port, messages) -> list:
        loop = asyncio.get_running_loop()
        created = []

        def factory(loop, coro, **kwargs):
            created.append(coro.__qualname__)
            return asyncio.Task(coro, loop=loop, **kwargs)

        sender, users = pick_targets(service)
        loop.set_task_factory(factory)
        try:
            # Plain reads: the harness client's own timeouts would add
            # client-side Tasks on Python < 3.12.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            assert (await reader.readline()).startswith(b"220 ")
            writer.write(b"EHLO harness\r\n")
            assert (await reader.readline()).startswith(b"250 ")
            for i in range(messages):
                writer.write(
                    f"MAIL FROM:<{sender}>\r\nRCPT TO:<{users[0]}>\r\n"
                    f"DATA\r\nSubject: {i}\r\n\r\nbody\r\n.\r\n".encode()
                )
                replies = [await reader.readline() for _ in range(4)]
                assert [r[:3] for r in replies] == [b"250", b"250", b"354", b"250"]
            writer.write(b"QUIT\r\n")
            assert (await reader.readline()).startswith(b"221 ")
            writer.close()
        finally:
            loop.set_task_factory(None)
        return created

    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, _web):
            one, twenty = [
                await asyncio.wait_for(exchange(service, smtp.port, n), 60.0)
                for n in (1, 20)
            ]
            assert one == twenty
            assert twenty.count("SmtpFrontend._handle") == 1
            assert service.stats.acked == 21

    asyncio.run(scenario())
