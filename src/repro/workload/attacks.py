"""Adversarial scenarios against a CR installation.

The paper deliberately excluded active attacks from its measurements but
names two in §6 / "Other Limitations":

* **whitelist spoofing** — forging the envelope sender "using a
  likely-whitelisted address", which walks straight past the dispatcher
  into the inbox;
* **trap bombing** — forging messages whose (spoofed) senders are spam-trap
  addresses "with the goal of forcing the server to send back the
  challenge to spam trap addresses, thus increasing the likelihood of
  getting the server IP added to one or more blacklist".

This module generalises those two into a family of attack classes the
declarative scenario pack (``scenarios/*.yaml``, see
:mod:`repro.scenarios`) instantiates by kind name through
:func:`build_attack`. Every attack draws from its own named RNG stream
— counts, arrival times, forged payloads and attacker-IP allocation — so
a scenario run is deterministic in its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Mapping, Optional

from repro.core.engine import CompanyInstallation
from repro.core.message import MessageKind, SenderClass, make_message
from repro.net.hosts import RemoteMailHost
from repro.sim.engine import Simulator
from repro.util.rng import RngStreams, poisson
from repro.util.simtime import DAY, HOUR, MINUTE
from repro.workload import naming

if TYPE_CHECKING:  # pragma: no cover
    from repro.workload.entities import World


@dataclass
class AttackScenario:
    """Base class: schedules adversarial traffic against one company."""

    company_id: str
    start_day: int = 1
    duration_days: int = 7
    messages_per_day: float = 50.0
    #: Filled by :meth:`install`; used by evaluations.
    campaign_id: str = field(default="attack", init=False)

    def install(
        self,
        world: "World",
        simulator: Simulator,
        installations: Mapping[str, CompanyInstallation],
        streams: RngStreams,
        *,
        behavior=None,
    ) -> None:
        """Arm the attack: validate it, allocate this run's attacker
        infrastructure, and schedule one planning event per attack day."""
        company = None
        for candidate in world.companies:
            if candidate.company_id == self.company_id:
                company = candidate
                break
        if company is None:
            known = ", ".join(c.company_id for c in world.companies)
            raise KeyError(
                f"unknown company {self.company_id!r} for attack "
                f"{self.campaign_id!r}; this deployment has: {known}"
            )
        if self.duration_days < 1:
            raise ValueError(
                f"attack {self.campaign_id!r}: duration_days must be >= 1, "
                f"got {self.duration_days}"
            )
        last_day = self.start_day + self.duration_days - 1
        if self.start_day < 0 or last_day >= world.scale.n_days:
            raise ValueError(
                f"attack {self.campaign_id!r} runs days {self.start_day}.."
                f"{last_day} but the horizon is {world.scale.n_days} days "
                f"(valid days 0..{world.scale.n_days - 1}); attack days "
                "past the end would silently never fire"
            )
        installation = installations.get(self.company_id)
        if installation is None:
            raise KeyError(
                f"company {self.company_id!r} exists in the world but has "
                "no installation; world and installations disagree"
            )
        rng = streams.stream(f"attack/{self.campaign_id}/{self.company_id}")
        self._prepare(world, rng)
        if behavior is not None:
            solver = self.challenge_solver()
            if solver is not None:
                behavior.register_campaign_solver(self.campaign_id, *solver)
        for day in range(self.start_day, self.start_day + self.duration_days):
            simulator.schedule(
                day * DAY,
                partial(
                    self._plan_day,
                    world, simulator, installation, company, rng, day,
                ),
                label=f"{self.campaign_id}:{self.company_id}",
            )

    def challenge_solver(self) -> Optional[tuple]:
        """``(solve_prob, delay_min, delay_max)`` if this attacker answers
        the challenges its forged mail provokes, else ``None``."""
        return None

    def _prepare(self, world, rng) -> None:
        """Allocate this run's attacker infrastructure (IPs, domains).

        Runs once per :meth:`install`, never lazily inside ``_forge``:
        per-run state must be leased from *this* run's world, so a
        scenario object reused across runs stays deterministic.
        """

    def _plan_day(
        self, world, simulator, installation, company, rng, day
    ) -> None:
        for _ in range(poisson(rng, self.messages_per_day)):
            t = day * DAY + rng.uniform(0, DAY)
            message = self._forge(world, company, rng, t)
            simulator.schedule(
                t, partial(installation.handle_inbound, message)
            )

    def _forge(self, world, company, rng, t):  # pragma: no cover - abstract
        raise NotImplementedError

    # -- shared attacker infrastructure helpers --------------------------

    def _lease_clean_ips(self, world, count: int, host_pattern: str) -> list:
        """A pool of rented clean hosts with valid PTR records, so the
        auxiliary filters pass the mail through to the CR engine."""
        ips = []
        for i in range(count):
            ip = world._ip_allocator.allocate()
            world.registry.register_client_ptr(ip, host_pattern.format(i=i))
            ips.append(ip)
        return ips

    def _lease_bot_ip(self, world) -> str:
        """One botnet member: dynamic-pool PTR, used for a single blast."""
        bot_ip = world._ip_allocator.allocate()
        world.registry.register_client_ptr(
            bot_ip, f"host-{bot_ip.replace('.', '-')}.dynamic.example"
        )
        return bot_ip

    def _register_attacker_domain(
        self, world, domain: str, locals_: list
    ) -> str:
        """Stand up a fully-functional attacker-controlled mail domain
        (A/MX/PTR records plus real mailboxes) and return its server IP.
        Challenges sent to *locals_*@*domain* are actually delivered."""
        ip = world._ip_allocator.allocate()
        world.registry.register_mail_domain(domain, ip)
        world.internet.register_host(
            RemoteMailHost(domain, ip, mailboxes=set(locals_))
        )
        return ip


@dataclass
class TrapBombingAttack(AttackScenario):
    """Force the victim's challenge server into DNSBLs.

    Every attack message carries a spam-trap address as its envelope
    sender and is delivered from a clean-looking host (valid PTR, not on
    any blacklist) so the auxiliary filters pass it — the whole point is
    that the CR engine *does* reflect a challenge, straight into a trap.
    """

    def __post_init__(self) -> None:
        self.campaign_id = "attack-trapbomb"
        self._attack_ips: list = []

    def _prepare(self, world, rng) -> None:
        self._attack_ips = self._lease_clean_ips(
            world, 8, "mx{i}.clean-looking.example"
        )

    def _forge(self, world, company, rng, t):
        target = rng.choice(company.users)
        return make_message(
            t,
            world.sample_trap_sender(rng),
            target.address,
            subject=naming.make_campaign_subject(rng, 11),
            size=4_000,
            client_ip=rng.choice(self._attack_ips),
            kind=MessageKind.SPAM,
            sender_class=SenderClass.SPAM_TRAP,
            campaign_id=self.campaign_id,
        )


@dataclass
class WhitelistSpoofingAttack(AttackScenario):
    """Deliver spam by forging likely-whitelisted senders.

    With probability ``guess_prob`` the attacker forges an address that is
    actually in the target's whitelist (reconnaissance: public address
    books, leaked correspondence); otherwise they guess a plausible but
    unknown contact.
    """

    guess_prob: float = 0.5

    def __post_init__(self) -> None:
        self.campaign_id = "attack-spoof"

    def _forge(self, world, company, rng, t):
        target = rng.choice(company.users)
        if target.contacts and rng.random() < self.guess_prob:
            sender = rng.choice(target.contacts)
        else:
            sender = world.sample_innocent_sender(rng)
        # Bots deliver the spoofed mail; SPF would catch many of these,
        # but the deployed product does not check SPF (Fig. 12).
        bot_ip = self._lease_bot_ip(world)
        return make_message(
            t,
            sender,
            target.address,
            subject=naming.make_campaign_subject(rng, 10),
            size=6_000,
            client_ip=bot_ip,
            kind=MessageKind.SPAM,
            sender_class=SenderClass.INNOCENT_THIRD_PARTY,
            campaign_id=self.campaign_id,
        )


@dataclass
class BackscatterStormAttack(AttackScenario):
    """Weaponise the CR engine as a backscatter cannon against a third
    party (§3.1's reflection concern, driven deliberately).

    Every forged message claims a *nonexistent* sender mailbox at one
    innocent external domain and arrives from a clean relay pool, so the
    filters pass it and the engine reflects a challenge at the victim's
    MX — where it bounces. The victim pays the bandwidth; the CR server
    burns reputation on undeliverable challenge mail.
    """

    #: Deterministic pick of the spoofed victim among the world's
    #: external domains (an index, so the spec stays a hashable scalar).
    victim_domain_index: int = 0

    def __post_init__(self) -> None:
        self.campaign_id = "attack-backscatter"
        self._attack_ips: list = []
        self._victim_domain: str = ""

    def _prepare(self, world, rng) -> None:
        self._attack_ips = self._lease_clean_ips(
            world, 8, "relay{i}.bulk-mailer.example"
        )
        domains = world.external_domains
        self._victim_domain = domains[
            self.victim_domain_index % len(domains)
        ].domain

    def _forge(self, world, company, rng, t):
        local = "r" + format(rng.getrandbits(48), "012x")
        target = rng.choice(company.users)
        return make_message(
            t,
            f"{local}@{self._victim_domain}",
            target.address,
            subject=naming.make_campaign_subject(rng, 9),
            size=5_000,
            client_ip=rng.choice(self._attack_ips),
            kind=MessageKind.SPAM,
            sender_class=SenderClass.NONEXISTENT_MAILBOX,
            campaign_id=self.campaign_id,
        )


@dataclass
class WhitelistPoisoningAttack(AttackScenario):
    """Poison whitelists by *answering* the victim's challenges.

    Phase 1 (the first ``seed_days`` of the window): a small set of
    attacker-owned addresses at a real attacker-run domain mail the
    victim; the challenges come back to working mailboxes and the
    attacker solves them (``solve_prob``), planting the addresses in
    users' whitelists. Phase 2: bots blast spam forging those same
    now-whitelisted addresses, which the dispatcher waves straight into
    the inbox.
    """

    seed_days: int = 2
    n_senders: int = 6
    solve_prob: float = 0.9

    def __post_init__(self) -> None:
        self.campaign_id = "attack-poison"
        self._senders: list = []
        self._server_ip: str = ""

    def challenge_solver(self) -> Optional[tuple]:
        return (self.solve_prob, 5 * MINUTE, 2 * HOUR)

    def _prepare(self, world, rng) -> None:
        domain = f"poison-{self.company_id}.attacker.example"
        locals_ = [f"news{i}" for i in range(self.n_senders)]
        self._senders = [f"{local}@{domain}" for local in locals_]
        self._server_ip = self._register_attacker_domain(
            world, domain, locals_
        )

    def _forge(self, world, company, rng, t):
        target = rng.choice(company.users)
        sender = rng.choice(self._senders)
        if t < (self.start_day + self.seed_days) * DAY:
            # Seeding phase: sent from the attacker's own (clean, PTR'd)
            # server so the reflected challenge reaches a real mailbox.
            client_ip = self._server_ip
            subject = naming.make_short_subject(rng)
            size = 3_000
        else:
            # Payoff phase: bots forge the freshly-whitelisted senders.
            client_ip = self._lease_bot_ip(world)
            subject = naming.make_campaign_subject(rng, 10)
            size = 7_000
        return make_message(
            t,
            sender,
            target.address,
            subject=subject,
            size=size,
            client_ip=client_ip,
            kind=MessageKind.SPAM,
            sender_class=SenderClass.REAL,
            campaign_id=self.campaign_id,
        )


@dataclass
class CaptchaFarmAttack(AttackScenario):
    """A spammer who simply pays humans to solve the CAPTCHAs.

    The mail is ordinary spam from attacker-owned mailboxes at a real
    attacker domain; what breaks the CR model is that a solving farm
    answers ``solve_prob`` of the reflected challenges, releasing the
    spam *and* whitelisting the senders for every later blast. §6 argues
    CR deployments must assume exactly this adversary.
    """

    n_senders: int = 4
    solve_prob: float = 0.65

    def __post_init__(self) -> None:
        self.campaign_id = "attack-captcha-farm"
        self._senders: list = []
        self._attack_ips: list = []

    def challenge_solver(self) -> Optional[tuple]:
        # Farms bill by the solved CAPTCHA and work around the clock.
        return (self.solve_prob, 2 * MINUTE, 45 * MINUTE)

    def _prepare(self, world, rng) -> None:
        domain = f"farm-{self.company_id}.bulkpro.example"
        locals_ = [f"offers{i}" for i in range(self.n_senders)]
        self._senders = [f"{local}@{domain}" for local in locals_]
        self._register_attacker_domain(world, domain, locals_)
        self._attack_ips = self._lease_clean_ips(
            world, 6, "smtp{i}.bulkpro.example"
        )

    def _forge(self, world, company, rng, t):
        target = rng.choice(company.users)
        return make_message(
            t,
            rng.choice(self._senders),
            target.address,
            subject=naming.make_campaign_subject(rng, 8),
            size=9_000,
            client_ip=rng.choice(self._attack_ips),
            kind=MessageKind.SPAM,
            sender_class=SenderClass.REAL,
            campaign_id=self.campaign_id,
        )


@dataclass
class NewsletterFloodAttack(AttackScenario):
    """A legitimate-but-unknown bulk sender: the false-positive flood.

    A clean, correctly-configured newsletter operator starts mailing the
    victim's users without being whitelisted first — and, like most bulk
    operators the paper measures, never answers challenges. None of this
    is spam, yet nearly all of it lands in quarantine: the damage is
    measured in false positives stuck in the gray spool, not in
    deliveries.
    """

    n_senders: int = 3

    def __post_init__(self) -> None:
        self.campaign_id = "attack-newsflood"
        self._senders: list = []
        self._server_ip: str = ""
        self._issue = 0

    def _prepare(self, world, rng) -> None:
        domain = f"flood-{self.company_id}.weekly-digest.example"
        locals_ = [f"edition{i}" for i in range(self.n_senders)]
        self._senders = [f"{local}@{domain}" for local in locals_]
        self._server_ip = self._register_attacker_domain(
            world, domain, locals_
        )
        self._issue = 0

    def _forge(self, world, company, rng, t):
        target = rng.choice(company.users)
        self._issue += 1
        return make_message(
            t,
            rng.choice(self._senders),
            target.address,
            subject=naming.make_newsletter_subject(rng, self._issue),
            size=18_000,
            client_ip=self._server_ip,
            kind=MessageKind.NEWSLETTER,
            sender_class=SenderClass.REAL,
            campaign_id=self.campaign_id,
        )


@dataclass
class FlashCrowdAttack(AttackScenario):
    """Signup day: a one-day flash crowd of brand-new *legitimate*
    correspondents (a product launch, a conference CFP) none of whom are
    whitelisted yet.

    Not an adversary at all — which is the point: the CR engine responds
    with a challenge storm, and only the fraction of real humans who
    bother to solve (the paper's ~23 % of deliverable challenges) get
    their mail through. The verdict measures the collateral damage of
    treating a flash crowd like an attack.
    """

    duration_days: int = 1
    messages_per_day: float = 400.0

    def __post_init__(self) -> None:
        self.campaign_id = "attack-flashcrowd"

    def _forge(self, world, company, rng, t):
        # Each message comes from a fresh, real external person whose
        # mailbox exists — the challenge can reach them, and the normal
        # legit-sender behaviour model decides whether they solve it.
        sender, client_ip = world.create_new_contact(rng)
        target = rng.choice(company.users)
        return make_message(
            t,
            sender,
            target.address,
            subject=naming.make_short_subject(rng),
            size=2_500,
            client_ip=client_ip,
            kind=MessageKind.LEGIT,
            sender_class=SenderClass.REAL,
            campaign_id=self.campaign_id,
        )


#: kind name (as written in scenario YAML) -> attack class.
ATTACK_KINDS = {
    "trap-bombing": TrapBombingAttack,
    "whitelist-spoofing": WhitelistSpoofingAttack,
    "backscatter-storm": BackscatterStormAttack,
    "whitelist-poisoning": WhitelistPoisoningAttack,
    "captcha-farm": CaptchaFarmAttack,
    "newsletter-flood": NewsletterFloodAttack,
    "flash-crowd": FlashCrowdAttack,
}


def attack_kind_names() -> list:
    return sorted(ATTACK_KINDS)


def build_attack(spec) -> AttackScenario:
    """Instantiate one attack from an :class:`repro.scenarios.AttackSpec`."""
    try:
        cls = ATTACK_KINDS[spec.kind]
    except KeyError:
        raise KeyError(
            f"unknown attack kind {spec.kind!r}; "
            f"known kinds: {', '.join(attack_kind_names())}"
        ) from None
    try:
        return cls(
            company_id=spec.company_id,
            start_day=spec.start_day,
            duration_days=spec.duration_days,
            messages_per_day=spec.messages_per_day,
            **dict(spec.params),
        )
    except TypeError as exc:
        raise ValueError(
            f"bad parameters for attack kind {spec.kind!r}: {exc}"
        ) from None
