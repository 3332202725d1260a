"""The live engine: admission queue → WAL → single-writer worker → reply.

:class:`LiveCrService` wraps the deterministic CR core — the same
:class:`~repro.core.engine.CompanyInstallation` objects the simulation
builds — behind an asyncio pipeline:

1. A frontend handler (SMTP or HTTP) builds a record and calls
   :meth:`try_submit`. A full admission queue refuses immediately — that
   becomes the 421 — so overload backs pressure onto the sender instead
   of growing unbounded state.
2. The single engine worker drains the queue in batches. For each batch
   it stamps arrival times, appends every record to the WAL, then issues
   **one** fsync (group commit), and only then applies the records to the
   engine and resolves the handlers' futures. No reply — 250 or 5xx — can
   reach a client before its record is durable: that ordering *is* the
   zero-loss invariant.
3. The worker also feeds queue depth to the degradation ladder and pushes
   the resulting shed level into every company's dispatcher.

Time: the engine runs on simulated time. Each record is stamped with a
sim-time arrival ``t`` derived from the wall clock (scaled by
``time_scale``), and the worker advances ``simulator.run(until=t)``
before applying — so digests, quarantine expiry, and challenge retries
genuinely fire while the server idles. On restart, replaying the WAL
re-drives the identical ``run(until)``/apply sequence, which is why
recovery is deterministic.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Union

from repro.analysis.store import LogStore
from repro.core.config import FilterChainSpec
from repro.core.engine import CompanyInstallation
from repro.core.filters.base import FilterChain
from repro.core.filters.content import OnlineNaiveBayesFilter
from repro.core.filters.reputation import SenderReputationFilter
from repro.core.message import EmailMessage, MessageKind, SenderClass, reset_msg_ids
from repro.core.mta_in import DropReason
from repro.experiments.runner import (
    LEDGER_COUNTERS,
    _seed_newsletter_whitelists,
    _seed_user_lists,
    collect_metrics,
    ledger_metrics,
)
from repro.net.hosts import RemoteMailHost
from repro.net.smtp import Reply
from repro.serve.admission import DegradationLadder
from repro.serve.retry import RetryPolicy, backoff_factory
from repro.serve.wal import WriteAheadLog
from repro.sim.engine import Simulator
from repro.util.metrics import short_names
from repro.util.rng import RngStreams
from repro.util.simtime import DAY
from repro.workload.calibration import DEFAULT_CALIBRATION
from repro.workload.entities import build_world
from repro.workload.scale import ScaleConfig, get_preset

#: MTA-IN verdict → SMTP reply for the live DATA acknowledgement.
_DROP_REPLY = {
    DropReason.MALFORMED: Reply.PARAM_SYNTAX,
    DropReason.UNRESOLVABLE_DOMAIN: Reply.DNS_TEMPFAIL,
    DropReason.NO_RELAY: Reply.RELAY_DENIED,
    DropReason.SENDER_REJECTED: Reply.BLACKLISTED,
    DropReason.UNKNOWN_RECIPIENT: Reply.MAILBOX_UNAVAILABLE,
}

#: Ground-truth message kind from the subject prefix the load generator
#: stamps; anything unstamped counts as legit mail.
_KIND_PREFIXES = (
    ("SPAM:", MessageKind.SPAM),
    ("NEWS:", MessageKind.NEWSLETTER),
)

#: Sender domains the live frontend pre-registers in the simulated DNS
#: zone so external load-generator traffic resolves (a live deployment's
#: senders exist in real DNS; ours exist in the simulated one).
LIVE_SENDER_DOMAINS = 32
LIVE_SENDER_DOMAIN_TEMPLATE = "ext-{i}.livegen.example"

#: Every counter the service keeps, under its metrics-map name;
#: :meth:`LiveCrService.metrics` adds what it reads at call time.
COUNTERS = (
    # Sessions opened and open now; envelope addresses refused as
    # malformed (501) or routed nowhere (550 at RCPT); messages
    # acknowledged with 250 (WAL-durable by construction) and their bytes.
    "smtp.sessions", "smtp.sessions_open", "smtp.malformed",
    "smtp.unrouted_rcpts", "smtp.acked", "smtp.bytes_in",
    # Tempfails (421 / 503): the queue was full, the reply deadline passed.
    "admission.refused_full", "admission.refused_deadline",
    # WAL group commits and the records they covered.
    "wal.fsync_batches", "wal.fsync_records",
    # Records applied this process (replayed and live), mail and web;
    # mail MTA-IN refused or no installation routes; web mutations
    # applied or stale by apply time (the legal race with expiry).
    "engine.applied", "engine.applied_mail", "engine.applied_web",
    "engine.mta_dropped", "engine.unrouted", "engine.web_applied",
    "engine.web_stale",
)


class _Item:
    __slots__ = ("record", "future")

    def __init__(self, record: dict, future: Optional[asyncio.Future]) -> None:
        self.record = record
        self.future = future


class LiveCrService:
    """The CR engine served live, with WAL durability and backpressure."""

    def __init__(
        self,
        preset: Union[str, ScaleConfig] = "tiny",
        seed: int = 7,
        wal_path: str = "serve.wal",
        *,
        # The live deployment runs the full hybrid chain (product filters
        # plus the PR 9 auxiliary members) so the degradation ladder has
        # sheddable stages; pass "default" for the bare product chain.
        chain="hybrid",
        audit: bool = False,
        queue_size: int = 256,
        batch_max: int = 64,
        time_scale: float = 1.0,
        engine_delay: float = 0.0,
        retry_policy: Optional[RetryPolicy] = None,
        ladder: Optional[DegradationLadder] = None,
    ) -> None:
        self.scale = get_preset(preset) if isinstance(preset, str) else preset
        self.seed = seed
        self.time_scale = time_scale
        #: Artificial per-message apply cost (seconds). Zero in production;
        #: the overload tests use it to pin the service's capacity far
        #: below the load generator's offered rate.
        self.engine_delay = engine_delay
        self.batch_max = batch_max
        self.wal = WriteAheadLog(wal_path)
        #: The kept counters: one increment per event, by name.
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.ladder = ladder or DegradationLadder(capacity=queue_size)
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_size)
        self._worker: Optional[asyncio.Task] = None
        self._closed = False
        self.ready = False

        calibration = DEFAULT_CALIBRATION
        reset_msg_ids()
        streams = RngStreams(seed)
        self.world = build_world(self.scale, calibration, streams)
        self.simulator = Simulator()
        self.store = LogStore()
        self.horizon = self.scale.n_days * DAY
        chain_spec = FilterChainSpec.parse(chain)
        factory = backoff_factory(retry_policy or RetryPolicy())
        self.installations: Dict[str, CompanyInstallation] = {}
        for company in self.world.companies:
            installation = CompanyInstallation(
                config=company.config,
                simulator=self.simulator,
                internet=self.world.internet,
                resolver=self.world.resolver,
                store=self.store,
                dnsbl_services=self.world.services,
                rng=streams.stream(f"antivirus/{company.company_id}"),
                hooks=None,
                challenge_size=calibration.challenge_size,
                audit=audit,
                chain=chain_spec,
                outbound_factory=factory,
            )
            _seed_user_lists(installation, company, calibration)
            installation.start(until=self.horizon)
            # Shed level 1 swaps in the chain minus the PR 9 auxiliary
            # members (adaptive content + reputation) — the expensive,
            # sheddable classifiers.
            installation.dispatcher.shed_chain = FilterChain(
                [
                    f
                    for f in installation.filter_chain.filters
                    if not isinstance(
                        f, (OnlineNaiveBayesFilter, SenderReputationFilter)
                    )
                ]
            )
            self.installations[company.company_id] = installation
        _seed_newsletter_whitelists(
            self.installations, self.world, calibration, streams
        )
        self._register_live_senders()
        self._route_cache: Dict[str, Optional[CompanyInstallation]] = {}

        self.last_reconciliation: dict = {}
        #: Sim time of the last applied/stamped record (monotonic floor).
        self._last_t = 0.0
        self._wall_base: Optional[float] = None
        self._sim_serve_base = 0.0

    # -- construction helpers ---------------------------------------------

    def _register_live_senders(self) -> None:
        """Give live external senders a footing in the simulated substrate:
        resolvable mail domains (MTA-IN's DNS check), catch-all hosts
        (challenge emails get delivered, not endlessly retried), and PTR
        records for loopback client IPs (the reverse-DNS filter)."""
        registry = self.world.registry
        for i in range(LIVE_SENDER_DOMAINS):
            domain = LIVE_SENDER_DOMAIN_TEMPLATE.format(i=i)
            ip = f"203.0.113.{i + 1}"
            registry.register_mail_domain(domain, ip)
            self.world.internet.register_host(
                RemoteMailHost(domain, ip, catch_all=True)
            )
        for ip in ("127.0.0.1", "::1"):
            registry.register_client_ptr(ip, "localhost.livegen.example")

    # -- routing -----------------------------------------------------------

    def route(self, rcpt: str) -> Optional[CompanyInstallation]:
        """The installation whose MTA accepts mail for *rcpt*'s domain."""
        domain = rcpt.rsplit("@", 1)[-1].lower()
        if domain in self._route_cache:
            return self._route_cache[domain]
        found = None
        for installation in self.installations.values():
            if installation.config.accepts_domain(domain):
                found = installation
                break
        self._route_cache[domain] = found
        return found

    # -- clock -------------------------------------------------------------

    def _sim_now(self) -> float:
        """Sim-time arrival stamp for a record admitted right now."""
        if self._wall_base is None:
            return max(self._last_t, self.simulator.now)
        elapsed = (time.monotonic() - self._wall_base) * self.time_scale
        return max(self._sim_serve_base + elapsed, self._last_t)

    # -- lifecycle ----------------------------------------------------------

    def recover(self) -> dict:
        """Open the WAL, replay every record through the engine, reconcile
        against the ledger. Returns the reconciliation report. Must be
        called (once) before serving."""
        records = self.wal.open()
        for seq, record in enumerate(records, start=1):
            self._apply(seq, record)
        self._last_t = self.simulator.now
        self._sim_serve_base = self.simulator.now
        self._wall_base = time.monotonic()
        self.last_reconciliation = self.reconcile()
        self.ready = True
        return self.last_reconciliation

    async def start(self) -> None:
        """Arm the engine worker (call after :meth:`recover`)."""
        self._worker = asyncio.get_running_loop().create_task(self._run_worker())

    async def close(self) -> None:
        """Graceful shutdown: drain the admission queue, stop the worker,
        close the WAL."""
        self._closed = True
        if self._worker is not None:
            # A sentinel unblocks the worker if the queue is empty.
            self._queue.put_nowait(None)
            await self._worker
            self._worker = None
        self.wal.close()
        self.ready = False

    # -- admission -----------------------------------------------------------

    def try_submit(self, record: dict) -> Optional[asyncio.Future]:
        """Admit *record* or refuse. Returns a future resolving to the SMTP
        reply code after the record is durable and applied, or ``None``
        when the queue is full (caller replies 421)."""
        if self._closed or self._queue.full():
            self.counters["admission.refused_full"] += 1
            return None
        future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(_Item(record, future))
        return future

    # -- the single-writer worker ---------------------------------------------

    async def _run_worker(self) -> None:
        while True:
            item = await self._queue.get()
            batch: List[_Item] = [] if item is None else [item]
            stop = item is None
            while len(batch) < self.batch_max:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    stop = True
                    break
                batch.append(nxt)
            if batch:
                self._process_batch(batch)
                if self.engine_delay:
                    # Capacity throttle (tests): pretend each message costs
                    # this much engine time, without burning CPU.
                    await asyncio.sleep(self.engine_delay * len(batch))
            level = self.ladder.observe(self._queue.qsize())
            self._apply_shed_level(level)
            if stop and self._queue.empty():
                return

    def _process_batch(self, batch: List[_Item]) -> None:
        # Stamp + journal the whole batch, then one fsync covers it.
        counters = self.counters
        seqs = []
        for item in batch:
            t = self._sim_now()
            self._last_t = t
            item.record["t"] = t
            seqs.append(self.wal.append(item.record))
        self.wal.flush()
        counters["wal.fsync_batches"] += 1
        counters["wal.fsync_records"] += len(batch)
        # Only now — records durable — apply and answer.
        for seq, item in zip(seqs, batch):
            code = self._apply(seq, item.record)
            future = item.future
            if future is not None and not future.done():
                future.set_result(code)
                if code == Reply.OK and item.record.get("kind") == "mail":
                    counters["smtp.acked"] += 1
                    counters["smtp.bytes_in"] += item.record.get("size", 0)

    def _apply_shed_level(self, level: int) -> None:
        for installation in self.installations.values():
            installation.dispatcher.shed_level = level

    # -- record application (live and replay take the same path) -------------

    def _apply(self, seq: int, record: dict) -> int:
        t = record.get("t", 0.0)
        if t > self.simulator.now:
            self.simulator.run(until=min(t, self.horizon))
        self.counters["engine.applied"] += 1
        if record.get("kind") == "web":
            return self._apply_web(record)
        return self._apply_mail(seq, record)

    def _apply_mail(self, seq: int, record: dict) -> int:
        self.counters["engine.applied_mail"] += 1
        installation = self.route(record["rcpt_to"])
        if installation is None:
            # Must stay 0: RCPT pre-checks routing before anything is WAL'd.
            self.counters["engine.unrouted"] += 1
            return Reply.MAILBOX_UNAVAILABLE
        subject = record.get("subject", "")
        kind = MessageKind.LEGIT
        for prefix, stamped_kind in _KIND_PREFIXES:
            if subject.startswith(prefix):
                kind = stamped_kind
                break
        message = EmailMessage(
            msg_id=seq,
            t=record["t"],
            env_from=record["mail_from"],
            env_to=record["rcpt_to"],
            subject=subject,
            size=record["size"],
            client_ip=record.get("client_ip", ""),
            kind=kind,
            sender_class=SenderClass.REAL,
            campaign_id=record.get("campaign"),
            has_virus=False,
        )
        drop_reason = installation.handle_inbound(message)
        if drop_reason is not None:
            self.counters["engine.mta_dropped"] += 1
            return _DROP_REPLY.get(drop_reason, Reply.MAILBOX_UNAVAILABLE)
        return Reply.OK

    def _apply_web(self, record: dict) -> int:
        self.counters["engine.applied_web"] += 1
        installation = self.installations.get(record.get("company", ""))
        if installation is None:
            self.counters["engine.web_stale"] += 1
            return Reply.MAILBOX_UNAVAILABLE
        action = record.get("action")
        ok = False
        if action in ("open", "attempt", "solve"):
            challenge = installation.challenge_manager.get_or_none(
                record.get("challenge_id", -1)
            )
            if challenge is not None:
                ok = True
                if action == "open":
                    installation.record_web_open(challenge.challenge_id)
                elif action == "attempt":
                    installation.record_web_attempt(
                        challenge.challenge_id, bool(record.get("success"))
                    )
                else:
                    installation.solve_challenge(challenge.challenge_id)
        elif action == "release":
            ok = installation.release_via_web(
                record.get("user", ""), record.get("msg_id", -1)
            )
        elif action == "delete":
            ok = installation.delete_via_web(
                record.get("user", ""), record.get("msg_id", -1)
            )
        if ok:
            self.counters["engine.web_applied"] += 1
            return Reply.OK
        self.counters["engine.web_stale"] += 1
        return Reply.MAILBOX_UNAVAILABLE

    # -- reconciliation and metrics -------------------------------------------

    def reconcile(self) -> dict:
        """Cross-check WAL, apply counters, and per-company ledgers.

        The contract after any restart (including kill -9 at any instant):

        * every WAL record was applied exactly once this process
          (``engine.applied == wal.records``),
        * every applied mail record is accounted: accepted into a ledger,
          refused by MTA-IN, or unroutable,
        * every company ledger satisfies the live conservation partition
          (``accepted == terminals + in quarantine``).
        """
        metrics = self.metrics()
        snapshots = self._ledger_snapshots()
        ledger_ok = all(s.live_conserved for s in snapshots)
        applied_ok = metrics["engine.applied"] == metrics["wal.records"]
        mail_ok = (
            metrics["ledger.accepted"]
            + metrics["engine.mta_dropped"]
            + metrics["engine.unrouted"]
            == metrics["engine.applied_mail"]
        )
        return {
            "reconciled": ledger_ok and applied_ok and mail_ok,
            "ledger_live_conserved": ledger_ok,
            "wal_records": metrics["wal.records"],
            "torn_tail_bytes": metrics["wal.torn_tail_bytes"],
            "accepted": metrics["ledger.accepted"],
            **short_names(metrics, "engine"),
            "per_company": {
                s.company_id: dict(
                    {name: getattr(s, name) for name in LEDGER_COUNTERS},
                    live_conserved=s.live_conserved,
                )
                for s in snapshots
            },
        }

    def metrics(self) -> dict:
        """The service's metrics map: :data:`COUNTERS`, plus the
        admission queue, WAL, ledgers, substrate caches, outbound MTAs
        and simulator read now (DESIGN.md "Run metrics")."""
        metrics = dict(self.counters)
        metrics.update({
            "admission.queue_depth": self._queue.qsize(),
            "admission.queue_capacity": self._queue.maxsize,
            "admission.shed_level": self.ladder.level,
            "admission.shed_transitions": len(self.ladder.transitions),
            "wal.records": self.wal.appended_seq,
            "wal.torn_tail_bytes": self.wal.torn_tail_bytes,
            "sim.events": self.simulator.events_processed,
        })
        metrics.update(ledger_metrics(self._ledger_snapshots()))
        metrics.update(
            collect_metrics(world=self.world, installations=self.installations)
        )
        return metrics

    def _ledger_snapshots(self) -> list:
        return [
            self.installations[company_id].ledger.snapshot()
            for company_id in sorted(self.installations)
        ]

    # -- views ---------------------------------------------------------------

    def health(self) -> dict:
        """``/healthz``: readiness and the ``admission.*`` metrics."""
        return {
            "status": "ok" if self.ready else "starting",
            **short_names(self.metrics(), "admission"),
        }

    def stats_view(self) -> dict:
        """``/stats``: the metrics map, the reconciliation now and at
        recovery, and the ladder's transitions. ``service`` (the smtp,
        admission, WAL and engine groups under short names) and
        ``sim_now`` are what the benchmark harness reads."""
        metrics = self.metrics()
        return {
            "metrics": metrics,
            "service": short_names(metrics, "smtp", "admission", "wal", "engine"),
            "shed_transitions": self.ladder.transitions_as_dicts(),
            "reconciliation": self.reconcile(),
            "recovery": self.last_reconciliation,
            "sim_now": self.simulator.now,
        }

    def directory(self) -> dict:
        """What the load generator needs to aim at this deployment."""
        return {
            "companies": [
                {
                    "company_id": installation.config.company_id,
                    "domain": installation.config.domain,
                    "users": [
                        f"{local}@{installation.config.domain}"
                        for local in sorted(installation.config.users)[:20]
                    ],
                }
                for installation in self.installations.values()
            ],
            "sender_domains": [
                LIVE_SENDER_DOMAIN_TEMPLATE.format(i=i)
                for i in range(LIVE_SENDER_DOMAINS)
            ],
        }


__all__ = [
    "COUNTERS", "LiveCrService", "LIVE_SENDER_DOMAINS",
    "LIVE_SENDER_DOMAIN_TEMPLATE",
]
