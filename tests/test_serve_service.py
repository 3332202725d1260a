"""Engine-side tests of the live service: admission, degradation, overload.

The overload test is the acceptance gate from the issue: offer ≥ 3× the
engine's capacity and the service must answer 421 for the excess — never
drop silently, never lose an acked message — and the ledger must
reconcile exactly (in-process, no kills: ``accepted == acked``).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.admission import MAX_SHED_LEVEL, DegradationLadder
from repro.serve.retry import RetryPolicy
from repro.serve.service import COUNTERS, LiveCrService
from repro.serve.sstress import StressConfig, run_stress
from tests.serve_harness import ehlo_client, http_request, live_stack, pick_targets


class TestDegradationLadder:
    def test_escalates_through_levels(self):
        ladder = DegradationLadder(capacity=100)
        assert ladder.observe(10) == 0
        assert ladder.observe(60) == 1  # past up[0]=0.55
        assert ladder.observe(90) == 2  # past up[1]=0.85
        assert ladder.level == MAX_SHED_LEVEL

    def test_deep_overload_jumps_straight_to_max(self):
        ladder = DegradationLadder(capacity=100)
        assert ladder.observe(95) == 2
        assert [(old, new) for _, old, new, _ in ladder.transitions] == [
            (0, 1),
            (1, 2),
        ]

    def test_hysteresis_no_flap_between_watermarks(self):
        ladder = DegradationLadder(capacity=100)
        ladder.observe(60)  # level 1
        # Between down[0]=0.20 and up[0]=0.55: stays at 1, no transitions.
        before = len(ladder.transitions)
        for depth in (30, 50, 25, 54):
            assert ladder.observe(depth) == 1
        assert len(ladder.transitions) == before

    def test_relaxes_as_load_drains(self):
        ladder = DegradationLadder(capacity=100)
        ladder.observe(95)
        assert ladder.observe(45) == 1  # <= down[1]=0.50
        assert ladder.observe(5) == 0  # <= down[0]=0.20
        assert ladder.level == 0

    def test_pin_clamps_and_records(self):
        ladder = DegradationLadder(capacity=100)
        assert ladder.pin(99) == MAX_SHED_LEVEL
        assert ladder.pin(-3) == 0
        dicts = ladder.transitions_as_dicts()
        assert dicts[0]["to"] == MAX_SHED_LEVEL and dicts[0]["depth"] == -1

    def test_zero_capacity_never_divides(self):
        ladder = DegradationLadder(capacity=0)
        assert ladder.observe(50) == 0


class TestRetryPolicy:
    def test_exponential_with_cap_and_exhaustion(self):
        policy = RetryPolicy(base=10.0, factor=2.0, max_delay=50.0, max_retries=4, jitter=0.0)
        assert [policy.delay_for(n, token=1) for n in range(1, 6)] == [
            10.0,
            20.0,
            40.0,
            50.0,
            None,
        ]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base=100.0, factor=1.0, max_delay=100.0, jitter=0.1)
        first = policy.delay_for(1, token=42)
        assert first == policy.delay_for(1, token=42)  # replay-stable
        assert 90.0 <= first <= 110.0
        assert first != policy.delay_for(1, token=43)  # spread across tokens


class TestMetrics:
    def test_fresh_service_names_every_metric_at_zero(self, tmp_path):
        service = LiveCrService(wal_path=str(tmp_path / "w.wal"))
        metrics = service.metrics()
        assert {name: metrics[name] for name in COUNTERS} == dict.fromkeys(
            COUNTERS, 0
        )
        pulled = {
            "admission.queue_depth": 0,
            "admission.queue_capacity": 256,
            "admission.shed_level": 0,
            "admission.shed_transitions": 0,
            "wal.records": 0,
            "wal.torn_tail_bytes": 0,
            "ledger.accepted": 0,
            "ledger.in_quarantine": 0,
            "ledger.stranded": 0,
            "faults.enabled": False,
            "faults.messages_sent": 0,
            "sim.events": 0,
        }
        assert {name: metrics[name] for name in pulled} == pulled
        assert {name.partition(".")[0] for name in metrics} == {
            "smtp", "admission", "wal", "engine", "ledger", "cache",
            "faults", "sim",
        }

    def test_unknown_counter_name_raises(self, tmp_path):
        service = LiveCrService(wal_path=str(tmp_path / "w.wal"))
        with pytest.raises(KeyError):
            service.counters["smtp.ackd"] += 1
        assert "smtp.ackd" not in service.metrics()

    def test_surfaces_read_the_map(self, tmp_path):
        async def scenario():
            async with live_stack(tmp_path) as (service, smtp, web):
                sender, users = pick_targets(service)
                client = await ehlo_client(smtp.port)
                assert await client.send_message(sender, users[0]) == 250
                await client.quit()
                status, stats = await http_request(web.port, "GET", "/stats")
                assert status == 200
                status, health = await http_request(web.port, "GET", "/healthz")
                assert status == 200
                return stats, health

        stats, health = asyncio.run(scenario())
        metrics = stats["metrics"]
        assert metrics["smtp.acked"] == metrics["ledger.accepted"] == 1
        assert metrics["wal.records"] == metrics["engine.applied"] == 1
        assert stats["reconciliation"]["accepted"] == 1
        for group in ("smtp", "admission", "wal", "engine"):
            for name, value in metrics.items():
                if name.startswith(group + "."):
                    assert stats["service"][name.split(".", 1)[1]] == value
        assert health["queue_capacity"] == metrics["admission.queue_capacity"]
        assert health["status"] == "ok"


class TestServiceCore:
    def test_accept_and_reconcile(self, tmp_path):
        async def scenario():
            async with live_stack(tmp_path) as (service, smtp, _web):
                sender, users = pick_targets(service)
                client = await ehlo_client(smtp.port)
                for i, subject in enumerate(
                    ["SPAM: pills", "NEWS: weekly", "lunch plans"]
                ):
                    code = await client.send_message(sender, users[i], subject=subject)
                    assert code == 250
                await client.quit()
                report = service.reconcile()
                assert report["reconciled"]
                assert report["accepted"] == service.metrics()["smtp.acked"] == 3
                # Spam/legit alike arrive from an unknown sender: all gray,
                # so each got a challenge and sits in quarantine.
                assert sum(
                    c["in_quarantine"] for c in report["per_company"].values()
                ) == 3

        asyncio.run(scenario())

    def test_applied_mail_shares_the_mailbox_string(self, tmp_path):
        """Two decoded records for one user leave one recipient string in
        the store, the mailbox's own; an unknown address passes as is."""
        service = LiveCrService(wal_path=str(tmp_path / "serve.wal"))
        service.recover()
        sender, users = pick_targets(service)
        ghost = "nobody-" + users[0]
        for seq, rcpt in enumerate([users[0], users[0], ghost]):
            record = json.loads(json.dumps({
                "kind": "mail", "mail_from": sender, "rcpt_to": rcpt,
                "size": 100, "subject": "lunch plans", "t": float(seq),
            }))
            service._apply(seq, record)
        first, second = service.store.dispatch
        assert first.user == second.user == users[0]
        assert first.user is second.user is service._mailboxes[users[0]]
        assert service.store.mta[-1].drop_reason is not None

    def test_unrouted_recipient_accounted_not_lost(self, tmp_path):
        async def scenario():
            async with live_stack(tmp_path) as (service, _smtp, _web):
                future = service.try_submit(
                    {
                        "kind": "mail",
                        "mail_from": "a@ext-0.livegen.example",
                        "rcpt_to": "ghost@nowhere.invalid",
                        "size": 100,
                        "subject": "hi",
                    }
                )
                code = await asyncio.wait_for(future, 10.0)
                assert code == 550
                report = service.reconcile()
                assert report["reconciled"]
                assert report["unrouted"] == 1
                assert service.metrics()["smtp.acked"] == 0

        asyncio.run(scenario())

    def test_overload_3x_capacity_tempfails_never_loses(self, tmp_path):
        """Offered ≥ 3× capacity: the excess gets 421, the ladder
        escalates and relaxes, and the ledger equals the acks exactly."""

        async def scenario():
            # engine_delay 5ms/message ≈ 200 msgs/s capacity; offer 600/s.
            async with live_stack(
                tmp_path, queue_size=16, batch_max=4, engine_delay=0.005
            ) as (service, smtp, _web):
                report = await run_stress(
                    StressConfig(
                        smtp_port=smtp.port,
                        web_port=None,
                        recipients=pick_targets(service)[1],
                        rate=600.0,
                        messages=240,
                        connections=24,
                        seed=5,
                    )
                )
                # Every offered message got an answer: 250 or a tempfail.
                assert report["completed"] == report["offered"] == 240
                assert report["errors"] == 0
                refused = report["codes"].get("421", 0)
                assert refused > 0, report
                assert service.metrics()["admission.refused_full"] == refused
                # Backpressure pushed the ladder up...
                ups = [
                    t for t in service.ladder.transitions_as_dicts()
                    if t["to"] > t["from"]
                ]
                assert ups, service.ladder.transitions
                # ...and the drained queue brought it back to full service.
                await asyncio.sleep(0.1)
                assert service.ladder.level == 0

                reconciliation = service.reconcile()
                assert reconciliation["reconciled"]
                assert reconciliation["accepted"] == report["acked"]
                assert report["acked"] + refused == 240

        asyncio.run(scenario())

    def test_shed_level2_quarantines_without_challenge(self, tmp_path):
        """Quarantine-by-default: gray mail is spooled and ledgered but no
        challenge is issued while shed level 2 is pinned; unpinning
        restores the full pipeline. Observable via /healthz throughout."""

        async def scenario():
            async with live_stack(tmp_path) as (service, smtp, web):
                sender, users = pick_targets(service)
                installation = service.route(users[0])

                status, _ = await http_request(
                    web.port, "POST", "/shed", {"level": 2}
                )
                assert status == 200
                status, health = await http_request(web.port, "GET", "/healthz")
                assert health["shed_level"] == 2

                client = await ehlo_client(smtp.port)
                assert await client.send_message(sender, users[0]) == 250
                assert installation.dispatcher.shed_quarantined == 1
                challenges_after_shed = len(
                    installation.challenge_manager._challenges
                )
                assert challenges_after_shed == 0

                # Reversible: unpin, next gray message gets its challenge.
                status, _ = await http_request(
                    web.port, "POST", "/shed", {"level": 0}
                )
                assert status == 200
                assert (
                    await client.send_message(
                        f"other@{sender.split('@')[1]}", users[1]
                    )
                    == 250
                )
                assert len(installation.challenge_manager._challenges) == 1
                await client.quit()

                status, health = await http_request(web.port, "GET", "/healthz")
                assert health["shed_level"] == 0
                # Both messages ledgered either way: shedding never drops.
                report = service.reconcile()
                assert report["reconciled"]
                assert report["accepted"] == 2

        asyncio.run(scenario())

    def test_shed_level1_uses_reduced_chain(self, tmp_path):
        async def scenario():
            async with live_stack(tmp_path) as (service, _smtp, _web):
                installation = next(iter(service.installations.values()))
                full = {type(f).__name__ for f in installation.filter_chain.filters}
                shed = {
                    type(f).__name__
                    for f in installation.dispatcher.shed_chain.filters
                }
                assert shed < full  # strictly smaller
                assert "OnlineNaiveBayesFilter" not in shed
                assert "SenderReputationFilter" not in shed

        asyncio.run(scenario())

    def test_graceful_close_drains_queue(self, tmp_path):
        """close() applies everything already admitted before stopping."""

        async def scenario():
            async with live_stack(
                tmp_path, engine_delay=0.002
            ) as (service, _smtp, _web):
                sender_domain = "ext-0.livegen.example"
                _, users = pick_targets(service)
                futures = [
                    service.try_submit(
                        {
                            "kind": "mail",
                            "mail_from": f"s{i}@{sender_domain}",
                            "rcpt_to": users[i % len(users)],
                            "size": 50,
                            "subject": f"SPAM: {i}",
                        }
                    )
                    for i in range(20)
                ]
                assert all(f is not None for f in futures)
                return service, futures

        async def run():
            service, futures = await scenario()
            # live_stack's finally already closed the service: every
            # admitted future must have resolved during the drain.
            assert all(f.done() for f in futures)
            codes = {f.result() for f in futures}
            assert codes == {250}
            report = service.reconcile()
            assert report["reconciled"]
            assert report["accepted"] == 20

        asyncio.run(run())

    def test_refuses_after_close(self, tmp_path):
        async def scenario():
            async with live_stack(tmp_path) as (service, _smtp, _web):
                pass
            assert (
                service.try_submit(
                    {"kind": "mail", "mail_from": "a@b.c", "rcpt_to": "d@e.f",
                     "size": 1, "subject": ""}
                )
                is None
            )
            assert service.metrics()["admission.refused_full"] == 1

        asyncio.run(scenario())
