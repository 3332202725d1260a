"""HTTP frontend tests: health/readiness, the journaled CAPTCHA and
digest mutations, and the ops shed control.

The important property beyond routing: every web *mutation* goes through
the WAL (it shows up in ``wal_records`` and replays), while reads never
do.
"""

from __future__ import annotations

import asyncio
import json

from repro.serve.service import LiveCrService
from repro.serve.web import MAX_HEADER_BYTES
from tests.serve_harness import ehlo_client, http_request, live_stack, pick_targets


def test_health_ready_stats_directory(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (service, _smtp, web):
            status, ready = await http_request(web.port, "GET", "/readyz")
            assert status == 200 and ready["ready"] is True

            status, health = await http_request(web.port, "GET", "/healthz")
            assert status == 200
            assert health["shed_level"] == 0
            assert health["queue_capacity"] == 256

            status, stats = await http_request(web.port, "GET", "/stats")
            assert status == 200
            assert stats["reconciliation"]["reconciled"] is True
            assert stats["service"]["acked"] == 0
            assert stats["metrics"]["smtp.acked"] == 0

            status, directory = await http_request(web.port, "GET", "/directory")
            assert status == 200
            assert directory["companies"]
            assert all("@" in u for c in directory["companies"] for u in c["users"])
            assert len(directory["sender_domains"]) == 32

    asyncio.run(scenario())


def test_not_ready_before_recover(tmp_path):
    """/readyz is the recovery gate: a service that has not replayed its
    WAL yet must answer 503."""

    async def scenario():
        from repro.serve.web import WebFrontend

        service = LiveCrService(wal_path=str(tmp_path / "w.wal"))
        web = WebFrontend(service)
        await web.start()
        try:
            status, body = await http_request(web.port, "GET", "/readyz")
            assert status == 503 and body["ready"] is False
        finally:
            await web.close()
            service.wal.close()

    asyncio.run(scenario())


def test_challenge_solve_flow_releases_and_is_journaled(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, web):
            sender, users = pick_targets(service)
            client = await ehlo_client(smtp.port)
            assert await client.send_message(sender, users[0], "SPAM: x") == 250
            await client.quit()
            installation = service.route(users[0])
            company = installation.config.company_id
            (challenge_id,) = [
                c.challenge_id
                for c in installation.challenge_manager._challenges.values()
            ]

            for path in ("/challenge/open", "/challenge/attempt"):
                status, body = await http_request(
                    web.port,
                    "POST",
                    path,
                    {"company": company, "challenge_id": challenge_id,
                     "success": False},
                )
                assert status == 200 and body["applied"], (path, body)
            status, body = await http_request(
                web.port,
                "POST",
                "/challenge/solve",
                {"company": company, "challenge_id": challenge_id},
            )
            assert status == 200 and body["applied"]

            report = service.reconcile()
            assert report["reconciled"]
            # 1 mail + 3 web mutations, all journaled.
            assert report["wal_records"] == 4
            assert report["applied_web"] == 3
            assert report["per_company"][company]["released"] == 1
            assert report["per_company"][company]["in_quarantine"] == 0

            # Reads don't journal.
            await http_request(web.port, "GET", "/stats")
            assert service.wal.appended_seq == 4

    asyncio.run(scenario())


def test_web_mutations_survive_replay(tmp_path):
    """A solve journaled before shutdown re-applies identically on the
    next boot: the released message stays released."""

    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, web):
            sender, users = pick_targets(service)
            client = await ehlo_client(smtp.port)
            assert await client.send_message(sender, users[0], "SPAM: x") == 250
            await client.quit()
            installation = service.route(users[0])
            company = installation.config.company_id
            (challenge_id,) = [
                c.challenge_id
                for c in installation.challenge_manager._challenges.values()
            ]
            status, _ = await http_request(
                web.port,
                "POST",
                "/challenge/solve",
                {"company": company, "challenge_id": challenge_id},
            )
            assert status == 200
            return service.wal.path, company

    wal_path, company = asyncio.run(scenario())
    replayed = LiveCrService(wal_path=str(wal_path))
    replayed.recover()
    report = replayed.last_reconciliation
    replayed.wal.close()
    assert report["reconciled"]
    assert report["per_company"][company]["released"] == 1
    assert report["per_company"][company]["in_quarantine"] == 0


def test_stale_and_invalid_requests(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (service, _smtp, web):
            company = next(iter(service.installations))
            # Unknown challenge id: 404, counted stale, still journaled.
            status, body = await http_request(
                web.port,
                "POST",
                "/challenge/solve",
                {"company": company, "challenge_id": 424242},
            )
            assert status == 404 and body["applied"] is False
            assert service.metrics()["engine.web_stale"] == 1
            assert service.wal.appended_seq == 1

            # Unknown company: 404.
            status, _ = await http_request(
                web.port,
                "POST",
                "/digest/release",
                {"company": "c99", "user": "x@y.z", "msg_id": 1},
            )
            assert status == 404

            # Missing fields / wrong shapes / bad routes.
            status, body = await http_request(
                web.port, "POST", "/challenge/solve", {"company": company}
            )
            assert status == 400 and "challenge_id" in body["error"]
            status, _ = await http_request(web.port, "POST", "/shed", {"level": "x"})
            assert status == 400
            status, _ = await http_request(web.port, "GET", "/nope")
            assert status == 404
            status, _ = await http_request(web.port, "PUT", "/stats")
            assert status == 405
            status, _ = await http_request(web.port, "POST", "/nope", {})
            assert status == 404

            report = service.reconcile()
            assert report["reconciled"]

    asyncio.run(scenario())


def test_raw_garbage_does_not_kill_the_server(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (_service, _smtp, web):
            reader, writer = await asyncio.open_connection("127.0.0.1", web.port)
            writer.write(b"not http at all\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 10.0)
            assert b"400" in raw.split(b"\r\n", 1)[0]
            writer.close()
            # Server is still alive and serving.
            status, _ = await http_request(web.port, "GET", "/healthz")
            assert status == 200

    asyncio.run(scenario())


async def _raw_exchange(port: int, request: bytes):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request)
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), 10.0)
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ")[1]), json.loads(body)


def test_oversized_headers_get_413(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (_service, _smtp, web):
            request = (
                b"GET /healthz HTTP/1.1\r\nX-Pad: "
                + b"a" * MAX_HEADER_BYTES
                + b"\r\n\r\n"
            )
            status, body = await _raw_exchange(web.port, request)
            assert status == 413 and body["error"] == "headers too large"
            status, _ = await http_request(web.port, "GET", "/healthz")
            assert status == 200

    asyncio.run(scenario())


def test_bad_content_length_gets_400(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (service, _smtp, web):
            for value in (b"-5", b"+5", b"5_0", b"five"):
                request = (
                    b"POST /challenge/solve HTTP/1.1\r\nContent-Length: "
                    + value
                    + b"\r\n\r\n"
                )
                status, body = await _raw_exchange(web.port, request)
                assert (status, body) == (
                    400, {"error": "bad content-length"}
                ), value
            assert service.wal.appended_seq == 0

    asyncio.run(scenario())
