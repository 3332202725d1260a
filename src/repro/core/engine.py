"""One deployed CR installation: the full product wired together.

:class:`CompanyInstallation` owns every per-company component — inbound MTA
checks, whitelist directory, filter chain, gray spool, challenge manager,
the outbound MTAs (user mail and challenges, possibly on distinct IPs), the
daily digest, and the quarantine expiry sweep — and emits every log record
the measurement pipeline consumes.

User- and sender-*behaviour* (does the sender solve the CAPTCHA? how
diligently does the user weed the digest?) is injected via
:class:`BehaviorHooks` so the product code stays mechanism-only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Optional

from repro.analysis.records import (
    ChallengeOutcomeRecord,
    ChallengeRecord,
    DigestRecord,
    ExpiryRecord,
    OutboundMailRecord,
    ReleaseRecord,
    WebAccessRecord,
    WhitelistChangeRecord,
)
from repro.analysis.store import LogStore
from repro.blacklistd.service import DnsblService
from repro.core.challenge import Challenge, ChallengeManager, WebAction
from repro.core.config import CompanyConfig, FilterChainSpec
from repro.core.digest import DigestAction, DigestCounters, DigestDecision
from repro.core.dispatcher import Dispatcher
from repro.core.filters.antivirus import AntivirusFilter
from repro.core.filters.base import FilterChain
from repro.core.filters.content import OnlineNaiveBayesFilter
from repro.core.filters.rbl import RblFilter
from repro.core.filters.reputation import SenderReputationFilter
from repro.core.filters.reverse_dns import ReverseDnsFilter
from repro.core.filters.spf import SpfEvaluator, SpfFilter, SpfResult
from repro.core.ledger import MessageLedger
from repro.core.message import DoorRow, EmailMessage
from repro.core.mta_in import MtaIn
from repro.core.spools import Category, GrayEntry, GraySpool, ReleaseMechanism
from repro.core.whitelist import WhitelistDirectory, WhitelistSource
from repro.net.dns import Resolver
from repro.net.internet import Internet
from repro.net.mta_out import DeliveryResult, OutboundMta
from repro.net.smtp import Envelope
from repro.sim.engine import Simulator
from repro.util.simtime import DAY, HOUR, day_of

#: Size of a challenge email in bytes. Challenges are small fixed-template
#: messages (a short text and one CAPTCHA URL); §3.3's reflected-traffic
#: ratio RT compares their bytes against full incoming messages.
DEFAULT_CHALLENGE_SIZE = 3_100


def _discard_delivery(envelope, result) -> None:
    """No-op final callback for fire-and-forget user mail (module-level so
    the pending delivery stays picklable for checkpoints)."""


@dataclass
class BehaviorHooks:
    """Workload-supplied behaviour models.

    ``on_challenge_delivered(installation, challenge)`` fires when a
    challenge email reaches a mailbox; the hook schedules any web activity
    (open / attempts / solve) on the installation's simulator.

    ``digest_review(installation, user, entries, now)`` fires per user per
    daily digest and returns the user's decisions.
    """

    on_challenge_delivered: Optional[
        Callable[["CompanyInstallation", Challenge], None]
    ] = None
    digest_review: Optional[
        Callable[["CompanyInstallation", str, list, float], list]
    ] = None


class CompanyInstallation:
    """The CR product as deployed at one company."""

    def __init__(
        self,
        config: CompanyConfig,
        simulator: Simulator,
        internet: Internet,
        resolver: Resolver,
        store: LogStore,
        dnsbl_services: Mapping[str, DnsblService],
        rng: random.Random,
        hooks: Optional[BehaviorHooks] = None,
        challenge_size: int = DEFAULT_CHALLENGE_SIZE,
        audit: bool = False,
        chain: FilterChainSpec = FilterChainSpec(),
        outbound_factory: Optional[
            Callable[[str, str, Simulator, Internet], OutboundMta]
        ] = None,
    ) -> None:
        self.config = config
        self.simulator = simulator
        self.internet = internet
        self.resolver = resolver
        self.store = store
        self.hooks = hooks or BehaviorHooks()

        self.ledger = MessageLedger(config.company_id, audit=audit)
        self.digest_counters = DigestCounters()
        self.mta_in = MtaIn(config, resolver)
        self.whitelists = WhitelistDirectory()
        self.gray_spool = GraySpool(ledger=self.ledger)
        self.challenge_manager = ChallengeManager(config.company_id)
        self.spf_evaluator = SpfEvaluator(resolver)
        self.filter_chain = self._build_filter_chain(dnsbl_services, rng, chain)
        self.dispatcher = Dispatcher(
            whitelists=self.whitelists,
            filter_chain=self.filter_chain,
            gray_spool=self.gray_spool,
            challenge_manager=self.challenge_manager,
            quarantine_days=config.quarantine_days,
            challenge_size=challenge_size,
            challenge_dedup=config.challenge_dedup,
            ledger=self.ledger,
        )

        # The live frontend injects a backoff-with-jitter OutboundMta
        # subclass here; the simulation always uses the stock class.
        build_mta = outbound_factory or OutboundMta
        self.user_mta = build_mta(
            f"{config.company_id}-mta-out", config.mta_out_ip, simulator, internet
        )
        if config.dual_outbound:
            self.challenge_mta = build_mta(
                f"{config.company_id}-mta-challenge",
                config.challenge_ip,
                simulator,
                internet,
            )
        else:
            self.challenge_mta = self.user_mta

        self.inbox_delivered = 0
        #: Crash-fault schedule (:class:`repro.net.crashes.CrashPlan`) or
        #: ``None``; installed by ``CrashPlan.arm``.
        self.crash_plan = None

    def _build_filter_chain(
        self,
        dnsbl_services: Mapping[str, DnsblService],
        rng: random.Random,
        chain: FilterChainSpec,
    ) -> FilterChain:
        # The spec names members in chain order; the per-company
        # FilterSettings supply antivirus/RBL tuning.
        settings = self.config.filters
        builders = {
            "antivirus": lambda: AntivirusFilter(
                settings.antivirus_detection_rate, rng
            ),
            "reverse_dns": lambda: ReverseDnsFilter(self.resolver),
            "rbl": lambda: self._rbl_filter(dnsbl_services, settings),
            "spf": lambda: SpfFilter(self.spf_evaluator),
            "content": lambda: OnlineNaiveBayesFilter(
                threshold=chain.content_threshold,
                warmup_days=chain.content_warmup_days,
            ),
            "reputation": lambda: SenderReputationFilter(
                window_days=chain.reputation_window_days,
                threshold=chain.reputation_threshold,
                min_observations=chain.reputation_min_observations,
            ),
        }
        return FilterChain([builders[member]() for member in chain.members])

    def _rbl_filter(
        self, dnsbl_services: Mapping[str, DnsblService], settings
    ) -> RblFilter:
        service = dnsbl_services.get(settings.rbl_provider)
        if service is None:
            raise ValueError(
                f"unknown RBL provider {settings.rbl_provider!r} for "
                f"{self.config.company_id}"
            )
        return RblFilter(service)

    # -- lifecycle -------------------------------------------------------

    def start(self, until: float) -> None:
        """Arm the recurring daily jobs (digest + quarantine expiry)."""
        now = self.simulator.now
        first_digest = (day_of(now) + 1) * DAY + self.config.digest_hour * HOUR
        self.simulator.schedule_every(
            DAY, self._digest_run, start=first_digest, until=until,
            label=f"digest:{self.config.company_id}",
        )
        first_expiry = (day_of(now) + 1) * DAY + 30 * 60  # 00:30 nightly
        self.simulator.schedule_every(
            DAY, self._expiry_run, start=first_expiry, until=until,
            label=f"expiry:{self.config.company_id}",
        )

    # -- inbound path ----------------------------------------------------

    def handle_inbound(self, message: EmailMessage):
        """Process one incoming message end-to-end at the current sim time.

        Returns the MTA-IN :class:`~repro.core.mta_in.DropReason` when the
        message was refused at the door, ``None`` when it was accepted
        into the lifecycle (the live frontend maps this to its SMTP
        reply; the simulation ignores the return value)."""
        now = self.simulator.now
        if self.crash_plan is not None and self.crash_plan.down(
            self.config.company_id, "dispatcher", now
        ):
            # The dispatcher process is down: MTA-IN answers 4xx and the
            # sending MTA retries after the restart. No record is written
            # — nothing was accepted — so conservation is untouched. The
            # retry lands shortly after recovery (hash-derived offset); a
            # retry that would fall past the horizon is refused for good.
            delay = self.crash_plan.inbound_retry_delay(
                self.config.company_id, message.msg_id, now
            )
            if delay is not None:
                self.simulator.schedule_after(
                    delay,
                    partial(self.handle_inbound, message),
                    label=f"crash-defer:{self.config.company_id}",
                )
            return None
        config = self.config
        company_id = config.company_id
        open_relay = config.open_relay
        # Single normalization point, inlined from message.normalize_ingress
        # (which documents the contract): everything downstream (dispatcher,
        # spools, whitelists, challenge dedup) sees canonical lowercase
        # envelope addresses. This is the hottest per-message call site in
        # the simulation, hence the rows appended positionally from locals.
        env_from = message.env_from
        if env_from and not env_from.islower():
            env_from = message.env_from = env_from.lower()
        env_to = message.env_to
        if not env_to.islower():
            env_to = message.env_to = env_to.lower()
        msg_id = message.msg_id
        size = message.size
        drop_reason = self.mta_in.check(message)
        self._record_mta(now, msg_id, drop_reason, size)
        if drop_reason is not None:
            return drop_reason

        self.ledger.accept(msg_id)
        user_key = env_to
        decision = self.dispatcher.process(message, user_key, now)

        quarantined = (
            decision.category is Category.GRAY
            and decision.filter_drop is None
        )
        spf = (
            self.spf_evaluator.evaluate_message(message)
            if quarantined
            else SpfResult.NONE
        )
        local, domain = user_key.rsplit("@", 1)
        challenge = decision.challenge
        # A DispatchRecord's fields, in field order.
        self.store.add_row(
            "dispatch",
            company_id,
            now,
            msg_id,
            user_key,
            decision.category,
            decision.filter_drop,
            challenge.challenge_id if challenge is not None else None,
            decision.challenge_created,
            env_from,
            message.subject,
            size,
            spf,
            message.kind,
            message.sender_class,
            message.campaign_id,
            open_relay,
            config.is_protected_recipient(local, domain),
        )
        if decision.category is Category.WHITE:
            self.inbox_delivered += 1
        if decision.challenge_created and challenge is not None:
            self._send_challenge(challenge)
        return None

    def refuse_at_door(self, row: DoorRow) -> None:
        """Refuse one generated message MTA-IN refuses whatever DNS says,
        from the :class:`DoorRow` the generator's door passes instead of
        the message (DESIGN.md §19): at this time, exactly what
        :meth:`handle_inbound` does for it without a crash plan."""
        self._record_mta(
            self.simulator.now, row.msg_id, self.mta_in.check(row), row.size
        )

    def _record_mta(self, now: float, msg_id: int, reason, size: int) -> None:
        config = self.config
        # An MtaRecord's fields, in field order.
        self.store.add_row(
            "mta", config.company_id, now, msg_id, reason, config.open_relay,
            size,
        )

    # -- challenge path ---------------------------------------------------

    def _send_challenge(self, challenge: Challenge) -> None:
        now = self.simulator.now
        self.store.add_challenge(
            ChallengeRecord(
                company_id=self.config.company_id,
                challenge_id=challenge.challenge_id,
                t=now,
                user=challenge.user,
                sender=challenge.sender,
                server_ip=self.challenge_mta.ip,
                size=challenge.size,
            )
        )
        envelope = Envelope(
            mail_from=f"challenge@{self.config.domain}",
            rcpt_to=challenge.sender,
            size=challenge.size,
            client_ip=self.challenge_mta.ip,
            payload_id=challenge.challenge_id,
        )
        self.challenge_mta.send(
            envelope, partial(self._on_challenge_final, challenge.challenge_id)
        )

    def _on_challenge_final(
        self, challenge_id: int, _envelope: Envelope, result: DeliveryResult
    ) -> None:
        challenge = self.challenge_manager.get(challenge_id)
        self.challenge_manager.record_delivery(challenge_id, result)
        self.store.add_challenge_outcome(
            ChallengeOutcomeRecord(
                company_id=self.config.company_id,
                challenge_id=challenge_id,
                status=result.status,
                bounce_reason=result.bounce_reason,
                attempts=result.attempts,
                t_final=result.t_final,
            )
        )
        if result.delivered and self.hooks.on_challenge_delivered is not None:
            self.hooks.on_challenge_delivered(self, challenge)

    # -- challenge web server ---------------------------------------------

    def record_web_open(self, challenge_id: int) -> None:
        now = self.simulator.now
        self.challenge_manager.record_open(challenge_id, now)
        self.store.add_web_access(
            WebAccessRecord(
                self.config.company_id, challenge_id, now, WebAction.OPEN, True
            )
        )

    def record_web_attempt(self, challenge_id: int, success: bool) -> None:
        now = self.simulator.now
        self.challenge_manager.record_attempt(challenge_id, now)
        self.store.add_web_access(
            WebAccessRecord(
                self.config.company_id, challenge_id, now, WebAction.ATTEMPT, success
            )
        )

    def solve_challenge(self, challenge_id: int) -> None:
        """A successful CAPTCHA submission: whitelist + release."""
        now = self.simulator.now
        challenge = self.challenge_manager.get(challenge_id)
        if challenge.solved:
            return
        self.challenge_manager.record_attempt(challenge_id, now)
        self.challenge_manager.record_solve(challenge_id, now)
        self.store.add_web_access(
            WebAccessRecord(
                self.config.company_id, challenge_id, now, WebAction.SOLVE, True
            )
        )
        self._whitelist(challenge.user, challenge.sender, WhitelistSource.CAPTCHA)
        self._release_from_sender(
            challenge.user, challenge.sender, ReleaseMechanism.CAPTCHA
        )

    # -- digest path --------------------------------------------------------

    def _digest_run(self) -> None:
        now = self.simulator.now
        if self.crash_plan is not None and self.crash_plan.digest_skipped(
            self.config.company_id, now
        ):
            # Digest daemon down at firing time: today's digests are
            # simply missed; pending entries wait for tomorrow's run.
            return
        day = day_of(now)
        for user in self.gray_spool.users_with_pending():
            local, domain = user.rsplit("@", 1)
            if not self.config.is_protected_recipient(local, domain):
                continue  # relayed recipients get no digest
            entries = self.gray_spool.pending_for_user(user)
            self.digest_counters.digests_generated += 1
            self.digest_counters.entries_listed += len(entries)
            self.store.add_digest(
                DigestRecord(self.config.company_id, user, day, len(entries))
            )
            if self.hooks.digest_review is None:
                continue
            decisions = self.hooks.digest_review(self, user, entries, now)
            for decision in decisions:
                self._schedule_digest_action(user, decision)

    def _schedule_digest_action(self, user: str, decision: DigestDecision) -> None:
        if decision.action is DigestAction.IGNORE:
            return
        self.simulator.schedule_after(
            max(0.0, decision.act_delay),
            partial(self._apply_digest_action, user, decision),
            label=f"digest-action:{self.config.company_id}",
        )

    def _apply_digest_action(self, user: str, decision: DigestDecision) -> None:
        entry = self.gray_spool.get(decision.msg_id)
        if entry is None or entry.user != user:
            # Already released/expired in the meantime — a legal no-op,
            # counted so the auditor can reconcile actions vs. terminals.
            self.digest_counters.stale_actions += 1
            return
        if decision.action is DigestAction.WHITELIST:
            sender = entry.message.env_from
            self.digest_counters.whitelist_actions += 1
            self._whitelist(user, sender, WhitelistSource.DIGEST)
            self._release_from_sender(user, sender, ReleaseMechanism.DIGEST)
            self._clear_challenge_slot(entry)
        elif decision.action is DigestAction.DELETE:
            self.digest_counters.delete_actions += 1
            self.gray_spool.delete(decision.msg_id)
            # The delete may have removed the last quarantined message
            # behind this sender's challenge; without this the pending
            # slot leaked and the sender's next message never triggered a
            # fresh challenge (found by the lifecycle auditor).
            self._clear_challenge_slot(entry)

    # -- live digest web UI -------------------------------------------------

    def release_via_web(self, user: str, msg_id: int) -> bool:
        """Digest web page "release": same semantics as the WHITELIST
        digest action, but driven synchronously by the live HTTP frontend
        instead of the behaviour hook. Returns ``False`` when the entry is
        already gone (released / expired meanwhile) — a legal stale click.
        """
        entry = self.gray_spool.get(msg_id)
        if entry is None or entry.user != user:
            self.digest_counters.stale_actions += 1
            return False
        sender = entry.message.env_from
        self.digest_counters.whitelist_actions += 1
        if sender:
            self._whitelist(user, sender, WhitelistSource.DIGEST)
            self._release_from_sender(user, sender, ReleaseMechanism.DIGEST)
            self._clear_challenge_slot(entry)
            return True
        # Null-sender (bounce/DSN) entries have no sender to whitelist:
        # release just this message.
        released = self.gray_spool.release(msg_id)
        if released is None:
            return False
        self.inbox_delivered += 1
        self.store.add_release(
            ReleaseRecord(
                company_id=self.config.company_id,
                user=user,
                msg_id=msg_id,
                t_arrival=entry.message.t,
                t_release=self.simulator.now,
                mechanism=ReleaseMechanism.DIGEST,
                kind=entry.message.kind,
            )
        )
        return True

    def delete_via_web(self, user: str, msg_id: int) -> bool:
        """Digest web page "delete": same semantics as the DELETE digest
        action. Returns ``False`` on a stale click."""
        entry = self.gray_spool.get(msg_id)
        if entry is None or entry.user != user:
            self.digest_counters.stale_actions += 1
            return False
        self.digest_counters.delete_actions += 1
        self.gray_spool.delete(msg_id)
        self._clear_challenge_slot(entry)
        return True

    # -- quarantine expiry ---------------------------------------------------

    def _expiry_run(self) -> None:
        now = self.simulator.now
        if self.crash_plan is not None and self.crash_plan.expiry_skipped(
            self.config.company_id, now
        ):
            # Gray-spool store down during the nightly sweep: entries past
            # their deadline stay put until the next sweep (the quarantine
            # promise is "held at least 30 days", so holding longer is
            # legal and the ledger still balances).
            return
        expired = self.gray_spool.expire_due(now)
        for entry in expired:
            self.store.add_expiry(
                ExpiryRecord(
                    self.config.company_id, entry.user, entry.message.msg_id, now
                )
            )
        # Clear pending-challenge slots whose quarantined messages are gone,
        # so a returning sender gets a fresh challenge.
        for entry in expired:
            self._clear_challenge_slot(entry)

    def _clear_challenge_slot(self, entry: GrayEntry) -> None:
        """Retire *entry*'s pending-challenge slot if it was the last
        quarantined message from its sender. Every path that finalizes a
        gray entry without a solve (expiry sweep, digest delete, horizon
        drain) must call this, or the slot outlives its messages and the
        sender's next message attaches to a dead challenge."""
        if entry.challenge_id is None:
            return
        sender = entry.message.env_from
        if not self.gray_spool.pending_from_sender(entry.user, sender):
            self.challenge_manager.expire_pending(entry.challenge_id)

    def shutdown(self) -> None:
        """End-of-run teardown: give every message still quarantined at the
        horizon its ``PENDING_AT_HORIZON`` terminal status and retire the
        challenge slots behind them (the gray-spool analogue of
        ``OutboundMta.drain``). Writes no log records — the measurement
        store only ever sees events that happened *inside* the horizon, so
        report output is identical with or without the drain."""
        drained = self.gray_spool.drain(self.simulator.now)
        for entry in drained:
            self._clear_challenge_slot(entry)

    # -- user-side actions -----------------------------------------------------

    def send_user_mail(self, user_local: str, rcpt: str, size: int) -> None:
        """A protected user sends outgoing mail (whitelists the recipient)."""
        now = self.simulator.now
        user = f"{user_local}@{self.config.domain}"
        self._whitelist(user, rcpt, WhitelistSource.OUTBOUND)
        self.store.add_outbound(
            OutboundMailRecord(self.config.company_id, now, user, rcpt, size)
        )
        envelope = Envelope(
            mail_from=user,
            rcpt_to=rcpt,
            size=size,
            client_ip=self.user_mta.ip,
        )
        self.user_mta.send(envelope, _discard_delivery)

    def manual_whitelist(self, user: str, address: str) -> None:
        """The user imports an address into their whitelist by hand."""
        self._whitelist(user, address, WhitelistSource.MANUAL)

    # -- shared helpers -----------------------------------------------------------

    def _whitelist(self, user: str, address: str, source: WhitelistSource) -> None:
        # Inbound-path callers pass already-normalized addresses; user-side
        # entry points (outbound mail, manual import) pass raw user input,
        # so normalize here — once — before storage and logging.
        address = address.lower()
        lists = self.whitelists.lists_for(user)
        if lists.add_to_whitelist(address, self.simulator.now, source):
            self.store.add_whitelist_change(
                WhitelistChangeRecord(
                    self.config.company_id,
                    user,
                    address,
                    self.simulator.now,
                    source,
                )
            )

    def _release_from_sender(
        self, user: str, sender: str, mechanism: ReleaseMechanism
    ) -> None:
        now = self.simulator.now
        entries = self.gray_spool.pending_from_sender(user, sender)
        for entry in entries:
            released = self.gray_spool.release(entry.message.msg_id)
            if released is None:
                continue
            self.inbox_delivered += 1
            self.store.add_release(
                ReleaseRecord(
                    company_id=self.config.company_id,
                    user=user,
                    msg_id=entry.message.msg_id,
                    t_arrival=entry.message.t,
                    t_release=now,
                    mechanism=mechanism,
                    kind=entry.message.kind,
                )
            )

    def seed_whitelist(self, user: str, addresses: list[str]) -> None:
        """Pre-populate a user's whitelist (steady-state address book)."""
        lists = self.whitelists.lists_for(user)
        for address in addresses:
            lists.add_to_whitelist(address, 0.0, WhitelistSource.SEED)

    def seed_blacklist(self, user: str, addresses: list[str]) -> None:
        lists = self.whitelists.lists_for(user)
        for address in addresses:
            lists.add_to_blacklist(address)


__all__ = [
    "BehaviorHooks",
    "CompanyInstallation",
    "DEFAULT_CHALLENGE_SIZE",
    "GrayEntry",
]
