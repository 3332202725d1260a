"""``sstress`` — an open-loop load generator for the live service.

Open-loop means the arrival schedule is fixed *before* the run: message
``i`` is due at ``start + i/rate`` regardless of how the server is
coping, and its latency is measured **from that scheduled arrival**, not
from when the sender finally got around to writing bytes. A closed-loop
generator (send, wait for the reply, send again) self-throttles under
overload and hides exactly the queueing the ladder and the 421 paths
exist to handle; an open-loop one keeps offering load, which is why the
overload experiments use it.

The generator keeps ``connections`` persistent SMTP sessions; a
connection that dies (server kill, 421-then-close, reset) is reopened
with a short backoff and the in-flight message is counted as an error —
*not* retried, so ``acked`` counts distinct messages that received a 250
and is directly comparable against the ledger's ``accepted`` after a
crash (every acked message MUST be there; unacked ones may or may not).

``--scenario`` replays a declarative scenario from the pack through the
live server: each attack's volume becomes SPAM-stamped SMTP traffic from
per-campaign sender mailboxes aimed at the attacked company, compressed
into the run's wall-clock budget. The in-sim verdicts remain the ground
truth for what the attack *does*; the live replay demonstrates the
service survives the same composite offered load with the ledger
conserved.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.serve.service import LIVE_SENDER_DOMAIN_TEMPLATE, LIVE_SENDER_DOMAINS

#: Reconnect backoff bounds (seconds) when the server is unreachable.
RECONNECT_MIN = 0.05
RECONNECT_MAX = 0.5


@dataclass
class StressConfig:
    """One load-generation run."""

    smtp_port: int
    host: str = "127.0.0.1"
    web_port: Optional[int] = None
    #: Offered load, messages per second (the open-loop schedule).
    rate: float = 200.0
    messages: int = 500
    connections: int = 8
    spam_fraction: float = 0.7
    newsletter_fraction: float = 0.1
    body_bytes: int = 400
    seed: int = 1
    #: Replay a scenario from the pack instead of the synthetic mix.
    scenario: Optional[str] = None
    #: Explicit targets; fetched from ``/directory`` when empty.
    recipients: Sequence[str] = ()
    senders: Sequence[str] = ()
    #: Give up on one SMTP exchange after this long.
    exchange_deadline: float = 20.0


@dataclass
class _Outcome:
    """Mutable tally shared by the sender workers."""

    codes: dict = field(default_factory=dict)
    errors: int = 0
    reconnects: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    acked: int = 0


def _percentile(values: List[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def default_senders(count: int = 64) -> List[str]:
    """Deterministic sender mailboxes across the live-generator domains."""
    return [
        f"lg{i:03d}@" + LIVE_SENDER_DOMAIN_TEMPLATE.format(i=i % LIVE_SENDER_DOMAINS)
        for i in range(count)
    ]


def build_messages(
    config: StressConfig, recipients: Sequence[str], senders: Sequence[str]
) -> List[Tuple[str, str, str]]:
    """The deterministic ``(mail_from, rcpt_to, subject)`` workload."""
    rng = random.Random(config.seed)
    messages = []
    for i in range(config.messages):
        roll = rng.random()
        if roll < config.spam_fraction:
            subject = f"SPAM: limited offer #{i}"
        elif roll < config.spam_fraction + config.newsletter_fraction:
            subject = f"NEWS: weekly digest #{i}"
        else:
            subject = f"meeting notes #{i}"
        messages.append(
            (rng.choice(list(senders)), rng.choice(list(recipients)), subject)
        )
    return messages


def scenario_messages(
    scenario_name: str, directory: dict, messages_cap: int, seed: int
) -> List[Tuple[str, str, str]]:
    """Compile a pack scenario's attacks into a live SMTP workload.

    Volume scales with each attack's ``messages_per_day * duration_days``
    (proportionally capped at *messages_cap*), senders are per-campaign
    mailboxes so the engine's dedup/whitelist behaviour matches a real
    campaign, and subjects carry the SPAM ground-truth stamp plus the
    campaign tag for post-hoc inspection.
    """
    from repro.scenarios import load_scenario

    spec = load_scenario(scenario_name)
    by_company = {c["company_id"]: c["users"] for c in directory["companies"]}
    rng = random.Random(seed)
    planned: List[Tuple[str, str, str]] = []
    totals = [
        max(1, int(a.messages_per_day * a.duration_days)) for a in spec.attacks
    ]
    scale = min(1.0, messages_cap / max(1, sum(totals)))
    for attack_index, attack in enumerate(spec.attacks):
        users = by_company.get(attack.company_id)
        if not users:  # scenario targets a company this preset lacks
            continue
        params = dict(attack.params)
        n_senders = int(params.get("n_senders", 4))
        senders = [
            f"{attack.kind}-{attack_index}-s{j}@"
            + LIVE_SENDER_DOMAIN_TEMPLATE.format(
                i=(attack_index * 7 + j) % LIVE_SENDER_DOMAINS
            )
            for j in range(max(1, n_senders))
        ]
        volume = max(1, int(totals[attack_index] * scale))
        for i in range(volume):
            planned.append(
                (
                    rng.choice(senders),
                    rng.choice(users),
                    f"SPAM: [{attack.kind}] blast {i}",
                )
            )
    rng.shuffle(planned)  # interleave the attacks like concurrent campaigns
    return planned


async def http_get(host: str, port: int, path: str, deadline: float = 10.0):
    """Status and parsed JSON body of a one-shot raw-HTTP ``GET``."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), deadline
    )
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), deadline)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ")[1]), json.loads(body)


async def fetch_directory(host: str, web_port: int, deadline: float = 10.0) -> dict:
    """GET ``/directory`` from the web frontend."""
    status, directory = await http_get(host, web_port, "/directory", deadline)
    if status != 200:
        raise RuntimeError(f"/directory returned HTTP {status}")
    return directory


class _SmtpSession:
    """One persistent sender connection with lazy (re)connect."""

    def __init__(self, host: str, port: int, outcome: _Outcome) -> None:
        self.host = host
        self.port = port
        self.outcome = outcome
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )
        await self.reader.readline()  # 220 greeting
        self.writer.write(b"EHLO sstress\r\n")
        await self.writer.drain()
        await self.reader.readline()

    def _drop(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None

    async def send(
        self, mail_from: str, rcpt_to: str, subject: str, body: bytes, deadline: float
    ) -> Optional[int]:
        """One full MAIL→DATA exchange; the final reply code, or ``None``
        when the connection failed mid-exchange (message NOT acked)."""
        try:
            if self.reader is None:
                await asyncio.wait_for(self._connect(), deadline)
                self.outcome.reconnects += 1
            reader, writer = self.reader, self.writer
            for command in (
                f"MAIL FROM:<{mail_from}>\r\n",
                f"RCPT TO:<{rcpt_to}>\r\n",
                "DATA\r\n",
            ):
                writer.write(command.encode())
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), deadline)
                if not line:
                    raise ConnectionResetError("closed mid-exchange")
                code = int(line[:3])
                if code >= 400:
                    # Envelope refused (421 backpressure, 550, ...): the
                    # transaction is over; reset state for the next try.
                    writer.write(b"RSET\r\n")
                    await writer.drain()
                    await asyncio.wait_for(reader.readline(), deadline)
                    return code
            writer.write(
                f"Subject: {subject}\r\n\r\n".encode() + body + b"\r\n.\r\n"
            )
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), deadline)
            if not line:
                raise ConnectionResetError("closed before verdict")
            return int(line[:3])
        except (ConnectionError, asyncio.TimeoutError, OSError, ValueError):
            self._drop()
            return None


async def run_stress(
    config: StressConfig, stop: Optional[asyncio.Event] = None
) -> dict:
    """Drive the schedule; returns the report dict (also JSON-dumped by
    the CLI). When *stop* is set mid-run (the chaos harness does, right
    after SIGKILLing the server) workers abandon the unsent remainder and
    the partial report is returned — ``acked`` stays exact."""
    recipients = list(config.recipients)
    senders = list(config.senders)
    if config.web_port is not None and (not recipients or config.scenario):
        directory = await fetch_directory(config.host, config.web_port)
    else:
        directory = None
    if config.scenario:
        if directory is None:
            raise RuntimeError("--scenario needs the web port for /directory")
        workload = scenario_messages(
            config.scenario, directory, config.messages, config.seed
        )
    else:
        if not recipients:
            if directory is None:
                raise RuntimeError("no recipients and no web port to discover them")
            recipients = [
                user for c in directory["companies"] for user in c["users"]
            ]
        if not senders:
            senders = default_senders()
        workload = build_messages(config, recipients, senders)

    body = b"x" * config.body_bytes
    outcome = _Outcome()
    start = time.monotonic()
    next_index = 0

    async def worker() -> None:
        nonlocal next_index
        session = _SmtpSession(config.host, config.smtp_port, outcome)
        backoff = RECONNECT_MIN
        while True:
            if stop is not None and stop.is_set():
                return
            index = next_index
            if index >= len(workload):
                return
            next_index += 1
            due = start + index / config.rate
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            mail_from, rcpt_to, subject = workload[index]
            code = await session.send(
                mail_from, rcpt_to, subject, body, config.exchange_deadline
            )
            if code is None:
                outcome.errors += 1
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, RECONNECT_MAX)
                continue
            backoff = RECONNECT_MIN
            outcome.codes[code] = outcome.codes.get(code, 0) + 1
            if code == 250:
                outcome.acked += 1
                outcome.latencies_ms.append(
                    (time.monotonic() - due) * 1000.0
                )

    workers = [
        asyncio.ensure_future(worker())
        for _ in range(min(config.connections, max(1, len(workload))))
    ]
    try:
        await asyncio.gather(*workers)
    finally:
        for task in workers:
            task.cancel()
    elapsed = max(time.monotonic() - start, 1e-9)
    completed = sum(outcome.codes.values())
    return {
        "offered": len(workload),
        "offered_rate": config.rate,
        "completed": completed,
        "acked": outcome.acked,
        "codes": {str(code): n for code, n in sorted(outcome.codes.items())},
        "errors": outcome.errors,
        "reconnects": outcome.reconnects,
        "elapsed_seconds": round(elapsed, 3),
        "sustained_msgs_per_sec": round(completed / elapsed, 1),
        "accept_latency_ms": {
            "p50": round(_percentile(outcome.latencies_ms, 0.50), 2),
            "p99": round(_percentile(outcome.latencies_ms, 0.99), 2),
            "max": round(max(outcome.latencies_ms), 2)
            if outcome.latencies_ms
            else 0.0,
        },
        "scenario": config.scenario,
        "seed": config.seed,
    }


__all__ = [
    "StressConfig",
    "build_messages",
    "default_senders",
    "fetch_directory",
    "http_get",
    "run_stress",
    "scenario_messages",
]
