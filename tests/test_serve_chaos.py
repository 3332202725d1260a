"""In-suite chaos and load-generator tests.

A trimmed version of the CI ``serve-smoke`` gate (2 kill -9 injections
instead of 20, small bursts) so the zero-loss machinery is exercised on
every test run, not only in the dedicated workflow job. The full-size
gate lives in ``scripts/serve_smoke.py``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.chaos import run_chaos
from repro.serve.sstress import StressConfig, run_stress, scenario_messages
from tests.serve_harness import live_stack, pick_targets


@pytest.mark.slow
def test_kill9_zero_loss_two_rounds(tmp_path):
    """Two randomized SIGKILLs against a real subprocess under load:
    every 250-acked message must be in the replayed ledger, the ledger
    must reconcile on every restart, and the final SIGTERM must drain
    cleanly with exit code 0."""
    report = asyncio.run(
        run_chaos(
            str(tmp_path),
            kills=2,
            messages_per_burst=80,
            rate=250.0,
            rng_seed=97,
        )
    )
    assert report["zero_loss"] is True
    assert report["graceful_exit_code"] == 0
    final = report["final_reconciliation"]
    assert final["reconciled"]
    assert final["accepted"] >= report["cumulative_acked"] - report["clean_burst"]["acked"]
    assert final["accepted"] >= sum(r["acked_this_burst"] for r in report["rounds"])
    assert report["clean_burst"]["errors"] == 0
    assert report["clean_burst"]["accept_latency_ms"]["p99"] > 0
    # Each restart recovered exactly the durable records the kill before
    # it left, as the WAL reader counts them.
    rounds = report["rounds"]
    assert rounds[0]["recovered_records"] == 0
    for before, after in zip(rounds, rounds[1:]):
        assert after["recovered_records"] == before["wal_records_after_kill"]
    final_boot = report["final_boot"]
    assert final_boot["recovered_records"] == rounds[-1]["wal_records_after_kill"]
    assert all(r["boot_to_ready_s"] > 0 for r in rounds + [final_boot])
    # /stats after the clean burst: the map, the reconciliation and the
    # benchmark harness's short names agree.
    stats = report["clean_stats"]
    metrics = stats["metrics"]
    assert metrics["ledger.accepted"] == stats["reconciliation"]["accepted"]
    assert metrics["ledger.accepted"] >= report["clean_burst"]["acked"] > 0
    assert metrics["wal.fsync_records"] >= report["clean_burst"]["acked"]
    for key, name in (
        ("fsync_records", "wal.fsync_records"),
        ("fsync_batches", "wal.fsync_batches"),
        ("refused_full", "admission.refused_full"),
        ("refused_deadline", "admission.refused_deadline"),
    ):
        assert stats["service"][key] == metrics[name]


def test_sstress_open_loop_report(tmp_path):
    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, web):
            report = await run_stress(
                StressConfig(
                    smtp_port=smtp.port,
                    web_port=web.port,
                    rate=500.0,
                    messages=100,
                    connections=4,
                    seed=11,
                )
            )
            assert report["offered"] == report["completed"] == 100
            assert report["acked"] == report["codes"]["250"]
            assert report["errors"] == 0
            assert report["accept_latency_ms"]["p99"] >= report[
                "accept_latency_ms"
            ]["p50"]
            assert report["sustained_msgs_per_sec"] > 0
            reconciliation = service.reconcile()
            assert reconciliation["reconciled"]
            assert reconciliation["accepted"] == report["acked"]

    asyncio.run(scenario())


def test_sstress_workload_is_deterministic(tmp_path):
    from repro.serve.sstress import build_messages, default_senders

    config = StressConfig(smtp_port=1, messages=50, seed=9)
    first = build_messages(config, ["u@d.example"], default_senders())
    second = build_messages(config, ["u@d.example"], default_senders())
    assert first == second
    assert any(s.startswith("SPAM:") for _, _, s in first)


def test_scenario_replay_through_live_server(tmp_path):
    """Satellite (d): the composite pack scenario, replayed as live SMTP
    traffic. All attack volume routes to the attacked company and the
    ledger conserves it."""

    async def scenario():
        async with live_stack(tmp_path) as (service, smtp, web):
            report = await run_stress(
                StressConfig(
                    smtp_port=smtp.port,
                    web_port=web.port,
                    scenario="combined-assault",
                    rate=500.0,
                    messages=80,
                    connections=6,
                    seed=3,
                )
            )
            assert report["scenario"] == "combined-assault"
            assert report["offered"] > 0
            assert report["errors"] == 0
            assert report["acked"] == report["codes"]["250"] == report["offered"]
            reconciliation = service.reconcile()
            assert reconciliation["reconciled"]
            # Both attacks target c01: every replayed message lands there.
            assert (
                reconciliation["per_company"]["c01"]["accepted"]
                == report["acked"]
            )

    asyncio.run(scenario())


def test_scenario_workload_mirrors_attack_volumes(tmp_path):
    """The compiled live workload respects the scenario's relative attack
    volumes and stamps every message as ground-truth spam."""
    directory = {
        "companies": [{"company_id": "c01", "users": ["a@x.example"]}],
        "sender_domains": [],
    }
    workload = scenario_messages("combined-assault", directory, 200, seed=1)
    assert len(workload) <= 200
    kinds = {"captcha-farm": 0, "newsletter-flood": 0}
    for _frm, rcpt, subject in workload:
        assert rcpt == "a@x.example"
        assert subject.startswith("SPAM: [")
        for kind in kinds:
            if f"[{kind}]" in subject:
                kinds[kind] += 1
    # flood (120/day) outweighs farm (80/day) at the scenario's ratio.
    assert kinds["newsletter-flood"] > kinds["captcha-farm"] > 0
