"""Hand-built micro-environments for unit-testing the CR engine.

``MicroEnv`` wires one company (one protected user), a resolver with a few
registered domains, an internet with controllable remote hosts, and a
DNSBL service — small enough that each test can reason about every message
individually.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.store import LogStore
from repro.blacklistd.service import DnsblService, ListingPolicy
from repro.core.config import CompanyConfig
from repro.core.engine import BehaviorHooks, CompanyInstallation
from repro.core.message import (
    EmailMessage,
    MessageKind,
    SenderClass,
    make_message,
)
from repro.net.dns import DnsRegistry, Resolver
from repro.net.hosts import RemoteMailHost
from repro.net.internet import Internet
from repro.sim.engine import Simulator
from repro.util.simtime import DAY

COMPANY_DOMAIN = "acme-corp.example"
USER = "alice"
USER_ADDRESS = f"{USER}@{COMPANY_DOMAIN}"
CONTACT_DOMAIN = "partner.example"
CONTACT = f"bob@{CONTACT_DOMAIN}"
CONTACT_IP = "10.1.0.1"
DEAD_DOMAIN = "parked.example"
MTA_IN_IP = "10.0.0.1"
MTA_OUT_IP = "10.0.0.2"
CHALLENGE_IP = "10.0.0.3"


@dataclass
class MicroEnv:
    simulator: Simulator
    registry: DnsRegistry
    resolver: Resolver
    internet: Internet
    store: LogStore
    rbl: DnsblService
    installation: CompanyInstallation
    contact_host: RemoteMailHost
    config: CompanyConfig
    hooks: BehaviorHooks = field(default_factory=BehaviorHooks)

    def inbound(
        self,
        env_from: str = CONTACT,
        env_to: str = USER_ADDRESS,
        *,
        at: Optional[float] = None,
        client_ip: str = CONTACT_IP,
        kind: MessageKind = MessageKind.LEGIT,
        sender_class: SenderClass = SenderClass.REAL,
        subject: str = "hello there",
        size: int = 5_000,
        has_virus: bool = False,
    ) -> EmailMessage:
        """Inject one inbound message at the current (or given) sim time."""
        if at is not None:
            self.simulator.run(until=at)
        message = make_message(
            self.simulator.now,
            env_from,
            env_to,
            subject=subject,
            size=size,
            client_ip=client_ip,
            kind=kind,
            sender_class=sender_class,
        )
        self.installation.handle_inbound(message)
        return message

    def run_days(self, days: float) -> None:
        self.simulator.run(until=self.simulator.now + days * DAY)

    def drain(self) -> None:
        self.simulator.run()


def make_micro_env(
    *,
    open_relay: bool = False,
    dual_outbound: bool = True,
    hooks: Optional[BehaviorHooks] = None,
    horizon_days: int = 60,
    audit: bool = False,
) -> MicroEnv:
    simulator = Simulator()
    registry = DnsRegistry()
    resolver = Resolver(registry)
    internet = Internet(resolver)
    store = LogStore()

    registry.register_mail_domain(COMPANY_DOMAIN, MTA_IN_IP)
    registry.register_mail_domain(
        CONTACT_DOMAIN, CONTACT_IP, spf=f"v=spf1 ip4:{CONTACT_IP} -all"
    )
    registry.register_mail_domain(DEAD_DOMAIN, "10.9.9.9")  # no host: dead

    contact_host = RemoteMailHost(
        CONTACT_DOMAIN, CONTACT_IP, mailboxes={"bob", "carol"}
    )
    internet.register_host(contact_host)

    rbl = DnsblService(
        "spamhaus-zen",
        ListingPolicy(threshold=1, window=DAY, base_duration=2 * DAY),
    )
    config = CompanyConfig(
        company_id="c-test",
        name="Acme",
        domain=COMPANY_DOMAIN,
        users=(USER, "admin"),
        mta_in_ip=MTA_IN_IP,
        mta_out_ip=MTA_OUT_IP,
        challenge_ip=CHALLENGE_IP if dual_outbound else MTA_OUT_IP,
        relay_domains=("relayed.example",) if open_relay else (),
        rejected_senders=frozenset({f"blocked@{CONTACT_DOMAIN}"}),
    )
    installation = CompanyInstallation(
        config=config,
        simulator=simulator,
        internet=internet,
        resolver=resolver,
        store=store,
        dnsbl_services={"spamhaus-zen": rbl},
        rng=random.Random(0),
        hooks=hooks,
        audit=audit,
    )
    installation.start(until=horizon_days * DAY)
    return MicroEnv(
        simulator=simulator,
        registry=registry,
        resolver=resolver,
        internet=internet,
        store=store,
        rbl=rbl,
        installation=installation,
        contact_host=contact_host,
        config=config,
        hooks=hooks or BehaviorHooks(),
    )
