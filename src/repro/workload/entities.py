"""World construction: companies, users, contacts, and the outside internet.

``build_world`` assembles everything static about the deployment:

* the 47 companies (13 open relays), with log-normally distributed sizes,
  per-company spam/legit load multipliers, and trap affinities;
* protected users with contact lists (seeded whitelists), nuisance senders
  (seeded blacklists), and per-user sociality rates;
* the external internet: contact-hosting domains (with DNS, PTR, SPF, and
  real mailboxes), dead domains, unresolvable domains, spammer-owned
  domains, newsletter sources, spam-trap domains, and the eight DNSBL
  operators;
* the simulated DNS and message-routing fabric.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

from repro.blacklistd.service import (
    DEFAULT_SERVICE_POLICIES,
    DnsblService,
    ListingPolicy,
)
from repro.blacklistd.spamtrap import TrapDirectory
from repro.core.config import CompanyConfig, FilterSettings
from repro.net.dns import DnsRegistry, Resolver
from repro.net.hosts import RemoteMailHost
from repro.net.internet import Internet
from repro.util.rng import RngStreams, poisson
from repro.workload import naming
from repro.workload.calibration import Calibration
from repro.workload.scale import ScaleConfig


class IpAllocator:
    """Hands out unique dotted-quad IPs from a documentation-style block."""

    def __init__(self, base: int = (100 << 24)) -> None:
        self._next = base

    def allocate(self) -> str:
        value = self._next
        self._next += 1
        return (
            f"{(value >> 24) & 0xFF}.{(value >> 16) & 0xFF}"
            f".{(value >> 8) & 0xFF}.{value & 0xFF}"
        )


@dataclass
class ExternalDomain:
    """A contact-hosting domain on the outside internet."""

    domain: str
    ip: str
    host: RemoteMailHost
    publishes_spf: bool


@dataclass
class NewsletterSource:
    """A bulk sender of solicited-ish newsletters (Fig. 6's high
    sender-similarity clusters)."""

    source_id: str
    domain: str
    ip: str
    senders: list[str]
    period_days: float
    phase_days: float
    #: Probability the operator answers a delivered challenge.
    solve_prob: float
    #: (company_id, full user address) pairs.
    subscribers: list[tuple[str, str]] = field(default_factory=list)
    issues_sent: int = 0


@dataclass
class MarketingSource:
    """A bulk marketing sender the recipients never subscribed to.

    These are the paper's high-sender-similarity Fig. 6 clusters: blasts
    with one fixed subject, sent from a handful of near-identical addresses
    (``dept-x.p@scn-1.com``) at a real, well-configured mail operation —
    so their messages survive the auxiliary filters, pile up in gray
    spools, and (for the sources whose operators answer challenges) show
    solve rates as high as 97 %.
    """

    source_id: str
    domain: str
    ip: str
    senders: list[str]
    period_days: float
    phase_days: float
    #: Probability the operator answers a delivered challenge (0 for most).
    solve_prob: float
    #: Fraction of every company's users each blast targets.
    coverage: float
    blasts_sent: int = 0


@dataclass
class UserProfile:
    """Workload parameters of one protected user."""

    local: str
    address: str
    #: Whitelist additions per day (drives Fig. 9 churn).
    sociality: float
    contacts: list[str]
    nuisance_senders: list[str]


@dataclass
class Company:
    """One protected company plus its workload parameters."""

    config: CompanyConfig
    users: list[UserProfile]
    spam_multiplier: float
    legit_multiplier: float
    trap_affinity: float

    @property
    def company_id(self) -> str:
        return self.config.company_id

    @property
    def n_users(self) -> int:
        return len(self.users)


@dataclass
class World:
    """Everything static about the simulated deployment."""

    scale: ScaleConfig
    calibration: Calibration
    registry: DnsRegistry
    resolver: Resolver
    internet: Internet
    services: dict[str, DnsblService]
    trap_directory: TrapDirectory
    companies: list[Company]
    external_domains: list[ExternalDomain]
    newsletter_sources: list[NewsletterSource]
    marketing_sources: list[MarketingSource]
    contact_pool: list[str]
    innocent_pool: list[str]
    dead_domains: list[str]
    unresolvable_domains: list[str]
    spammer_senders: list[str]
    trap_addresses: list[str]
    forwarder_ips: list[str]
    snowshoe_ips: list[str]
    _ip_allocator: IpAllocator
    _ext_by_domain: dict[str, ExternalDomain]
    #: Memoised spoofed-sender mixes keyed by trap affinity: ``(class
    #: names, cumulative shares)`` ready for bisection. One company's
    #: affinity is fixed for the whole run, so the mix is, too.
    _spoof_sender_cum: dict = field(default_factory=dict)

    def spoof_sender_cum(self, trap_affinity: float) -> tuple:
        """``(class_names, cumulative_shares)`` of the spoofed-sender mix.

        A cached, bisect-ready form of ``calibration.spoof_mix`` — the
        mix used to be rebuilt (two dict comprehensions) for every single
        spam message.
        """
        cached = self._spoof_sender_cum.get(trap_affinity)
        if cached is None:
            mix = self.calibration.spoof_mix(trap_affinity)
            names = list(mix)
            cum = list(accumulate(mix.values()))
            cached = self._spoof_sender_cum[trap_affinity] = (names, cum)
        return cached

    def install_fault_plan(self, plan) -> None:
        """Wire a :class:`~repro.net.faults.FaultPlan` through the substrate.

        Attaches the plan to the resolver (DNS episodes), the router and
        every remote host — current and future (weather, greylisting) —
        and configures each DNSBL operator's listing/delisting lag.
        """
        self.resolver.fault_plan = plan
        self.internet.install_fault_plan(plan)
        for name, service in self.services.items():
            listing_lag, delisting_lag = plan.dnsbl_lag_for(name)
            service.listing_lag = listing_lag
            service.delisting_lag = delisting_lag

    # -- sampling helpers used by the trace generator -------------------

    def sample_nonexistent_sender(self, rng: random.Random) -> str:
        """A syntactically fine address at a real domain with no mailbox."""
        domain = rng.choice(self.external_domains).domain
        local = "x" + format(rng.getrandbits(48), "012x")
        return f"{local}@{domain}"

    def sample_dead_domain_sender(self, rng: random.Random) -> str:
        local = naming.make_person_local(rng)
        return f"{local}@{rng.choice(self.dead_domains)}"

    def sample_innocent_sender(self, rng: random.Random) -> str:
        return rng.choice(self.innocent_pool)

    def sample_trap_sender(self, rng: random.Random) -> str:
        return rng.choice(self.trap_addresses)

    def sample_spammer_sender(self, rng: random.Random) -> str:
        return rng.choice(self.spammer_senders)

    def sample_unresolvable_sender(self, rng: random.Random) -> str:
        local = naming.make_person_local(rng)
        return f"{local}@{rng.choice(self.unresolvable_domains)}"

    def create_new_contact(self, rng: random.Random) -> tuple[str, str]:
        """Create a brand-new external person (address, client_ip) whose
        mailbox really exists, so the challenge can reach them."""
        ext = rng.choice(self.external_domains)
        local = naming.make_person_local(rng) + format(rng.getrandbits(24), "06x")
        ext.host.add_mailbox(local)
        return f"{local}@{ext.domain}", ext.ip

    def client_ip_for_address(self, address: str) -> Optional[str]:
        """The server IP a legitimate owner of *address* would send from."""
        domain = address.rsplit("@", 1)[-1].lower()
        ext = self._ext_by_domain.get(domain)
        if ext is not None:
            return ext.ip
        return self.server_ip_of(domain)

    def server_ip_of(self, domain: str) -> Optional[str]:
        """The registered A record of *domain*, if any."""
        records = self.registry.lookup(domain, DnsRegistry.A)
        return records[0] if records else None

    def create_bot_ips(
        self,
        count: int,
        rng: random.Random,
        listed_duration: float,
        now: float,
    ) -> list[str]:
        """Allocate botnet member IPs for a campaign.

        Each bot gets a PTR record with probability ``bot_ptr_prob`` (the
        reverse-DNS filter keys on this) and is pre-listed on the product's
        RBL with probability ``bot_listed_prob`` — real botnet IPs hit spam
        traps worldwide long before they hit our companies.
        """
        cal = self.calibration
        random = rng.random
        allocate = self._ip_allocator.allocate
        register_ptr = self.registry.register_client_ptr
        ptr_prob = cal.bot_ptr_prob
        # One rng draw per (bot, service) pair, in the original order; the
        # passing IPs are collected per service and listed in one bulk call
        # after the loop. force_list draws no randomness and nothing in
        # this loop reads blacklist state, so deferring the listings is
        # state-identical to listing each bot as its roll passes.
        listings = [
            (coverage, self.services[service_name], [])
            for service_name, coverage in cal.bot_listing_probs
        ]
        ips = []
        for _ in range(count):
            ip = allocate()
            if random() < ptr_prob:
                register_ptr(
                    ip, f"host-{ip.replace('.', '-')}.dynamic.example"
                )
            for coverage, _service, listed in listings:
                if random() < coverage:
                    listed.append(ip)
            ips.append(ip)
        for _coverage, service, listed in listings:
            if listed:
                service.force_list_many(listed, now, listed_duration)
        return ips

    def spf_domains_published(self) -> int:
        """How many external domains publish SPF (diagnostics)."""
        return sum(1 for d in self.external_domains if d.publishes_spf)


def build_world(
    scale: ScaleConfig,
    calibration: Calibration,
    streams: RngStreams,
    config_overrides: Optional[dict] = None,
) -> World:
    """Construct the full static world for one simulation run.

    *config_overrides* replaces :class:`CompanyConfig` fields on every
    company (the dedup ablation turns ``challenge_dedup`` off this way).
    """
    rng = streams.stream("world")
    registry = DnsRegistry()
    resolver = Resolver(registry)
    internet = Internet(resolver)
    ips = IpAllocator()

    services = _build_services(scale)
    trap_directory, trap_addresses = _build_traps(
        scale, calibration, services, registry, internet, ips, rng
    )
    external_domains, ext_by_domain = _build_external_domains(
        scale, calibration, services, registry, internet, ips, rng
    )
    contact_pool = _populate_contacts(scale, external_domains, rng)
    innocent_pool = _populate_innocents(scale, external_domains, rng)
    dead_domains = _build_dead_domains(scale, calibration, registry, ips, rng)
    unresolvable_domains = [
        naming.make_domain(rng, suffix=f"u{i}")
        for i in range(scale.unresolvable_domains)
    ]
    spammer_senders = _build_spammer_domains(
        scale, calibration, registry, internet, ips, rng
    )
    forwarder_ips = _build_forwarders(registry, ips, rng)
    snowshoe_ips = _build_snowshoe_ips(registry, ips, rng)
    nuisance_pool = _build_nuisance_pool(scale, registry, internet, ips, rng)
    companies = _build_companies(
        scale,
        calibration,
        registry,
        ips,
        rng,
        contact_pool,
        nuisance_pool,
        external_domains,
        config_overrides,
    )
    newsletter_sources = _build_newsletters(
        scale, calibration, registry, internet, ips, rng, companies
    )
    marketing_sources = _build_marketing(
        scale, calibration, registry, internet, ips, rng
    )

    return World(
        scale=scale,
        calibration=calibration,
        registry=registry,
        resolver=resolver,
        internet=internet,
        services=services,
        trap_directory=trap_directory,
        companies=companies,
        external_domains=external_domains,
        newsletter_sources=newsletter_sources,
        marketing_sources=marketing_sources,
        contact_pool=contact_pool,
        innocent_pool=innocent_pool,
        dead_domains=dead_domains,
        unresolvable_domains=unresolvable_domains,
        spammer_senders=spammer_senders,
        trap_addresses=trap_addresses,
        forwarder_ips=forwarder_ips,
        snowshoe_ips=snowshoe_ips,
        _ip_allocator=ips,
        _ext_by_domain=ext_by_domain,
    )


# ----------------------------------------------------------------------
# build steps
# ----------------------------------------------------------------------


def _build_services(scale: ScaleConfig) -> dict[str, DnsblService]:
    """The eight DNSBL operators, policies scaled with traffic volume.

    Thresholds shrink with the volume scale (and floor at one hit); to keep
    the expected listed-time of a lightly-hitting server roughly invariant
    under that flooring, listing durations shrink with the square root of
    the same factor.
    """
    duration_scale = math.sqrt(scale.dnsbl_threshold_scale)
    services = {}
    for name, policy in DEFAULT_SERVICE_POLICIES.items():
        scaled = ListingPolicy(
            threshold=max(1, round(policy.threshold * scale.dnsbl_threshold_scale)),
            window=policy.window,
            base_duration=policy.base_duration * duration_scale,
            escalation=policy.escalation,
            max_duration=policy.max_duration * duration_scale,
        )
        services[name] = DnsblService(name, scaled)
    return services


class TrapReporter:
    """Delivered-hook of a spam-trap host: report the sending IP to the
    trap's DNSBL operator. A callable class (not a closure) so trap hosts
    stay picklable for simulation checkpoints."""

    __slots__ = ("service",)

    def __init__(self, service: DnsblService) -> None:
        self.service = service

    def __call__(self, envelope, now: float) -> None:
        self.service.record_trap_hit(envelope.client_ip, now)


def _build_traps(
    scale: ScaleConfig,
    calibration: Calibration,
    services: dict[str, DnsblService],
    registry: DnsRegistry,
    internet: Internet,
    ips: IpAllocator,
    rng: random.Random,
) -> tuple[TrapDirectory, list[str]]:
    directory = TrapDirectory()
    all_traps: list[str] = []
    for service in services.values():
        domains = []
        for i in range(scale.trap_domains_per_service):
            domain = naming.make_domain(rng, suffix=f"t{i}")
            ip = ips.allocate()
            registry.register_mail_domain(
                domain,
                ip,
                spf=(
                    f"v=spf1 ip4:{ip} -all"
                    if rng.random() < calibration.trap_domain_spf_prob
                    else None
                ),
            )
            # Trap hosts silently accept everything and report the sender.
            host = RemoteMailHost(
                domain,
                ip,
                catch_all=True,
                on_delivered=TrapReporter(service),
            )
            internet.register_host(host)
            domains.append(domain)
        created = directory.create_traps(
            service.name, domains, scale.traps_per_domain, rng
        )
        all_traps.extend(created)
    return directory, all_traps


def _build_external_domains(
    scale: ScaleConfig,
    calibration: Calibration,
    services: dict[str, DnsblService],
    registry: DnsRegistry,
    internet: Internet,
    ips: IpAllocator,
    rng: random.Random,
) -> tuple[list[ExternalDomain], dict[str, ExternalDomain]]:
    service_list = list(services.values())
    domains: list[ExternalDomain] = []
    by_domain: dict[str, ExternalDomain] = {}
    for i in range(scale.ext_domains):
        domain = naming.make_domain(rng, suffix=f"e{i}")
        ip = ips.allocate()
        publishes_spf = rng.random() < calibration.ext_domain_spf_prob
        registry.register_mail_domain(
            domain, ip, spf=f"v=spf1 ip4:{ip} -all" if publishes_spf else None
        )
        # ~30 % of receiving servers consult 1–2 public DNSBLs, which is
        # how a listed challenge server learns about its listing (Fig. 11).
        subscribed = (
            rng.sample(service_list, rng.randint(1, 2))
            if rng.random() < 0.30
            else ()
        )
        host = RemoteMailHost(
            domain,
            ip,
            greylisting=rng.random() < calibration.ext_domain_greylist_prob,
            dnsbl_services=subscribed,
        )
        internet.register_host(host)
        ext = ExternalDomain(domain, ip, host, publishes_spf)
        domains.append(ext)
        by_domain[domain] = ext
    return domains, by_domain


def _populate_contacts(
    scale: ScaleConfig, external_domains: list[ExternalDomain], rng: random.Random
) -> list[str]:
    pool_size = max(scale.total_users * 25, 500)
    pool = []
    for _ in range(pool_size):
        ext = rng.choice(external_domains)
        local = naming.make_person_local(rng) + format(rng.getrandbits(20), "05x")
        ext.host.add_mailbox(local)
        pool.append(f"{local}@{ext.domain}")
    return pool


def _populate_innocents(
    scale: ScaleConfig, external_domains: list[ExternalDomain], rng: random.Random
) -> list[str]:
    pool = []
    for _ in range(scale.innocent_pool_size):
        ext = rng.choice(external_domains)
        local = naming.make_person_local(rng) + format(rng.getrandbits(20), "05x")
        ext.host.add_mailbox(local)
        pool.append(f"{local}@{ext.domain}")
    return pool


def _build_dead_domains(
    scale: ScaleConfig,
    calibration: Calibration,
    registry: DnsRegistry,
    ips: IpAllocator,
    rng: random.Random,
) -> list[str]:
    """Domains that resolve in DNS but whose mail server never answers."""
    domains = []
    for i in range(scale.dead_domains):
        domain = naming.make_domain(rng, suffix=f"d{i}")
        ip = ips.allocate()
        registry.register_mail_domain(
            domain,
            ip,
            spf=(
                f"v=spf1 ip4:{ip} -all"
                if rng.random() < calibration.dead_domain_spf_prob
                else None
            ),
        )
        # No Internet host registered: connections fail, retries expire.
        domains.append(domain)
    return domains


def _build_spammer_domains(
    scale: ScaleConfig,
    calibration: Calibration,
    registry: DnsRegistry,
    internet: Internet,
    ips: IpAllocator,
    rng: random.Random,
) -> list[str]:
    """Bulk-mailer domains whose sender addresses actually work (the
    'real' spoof class: challenges get delivered and ignored)."""
    senders = []
    n_domains = max(6, scale.ext_domains // 12)
    for i in range(n_domains):
        domain = naming.make_domain(rng, suffix=f"s{i}")
        ip = ips.allocate()
        registry.register_mail_domain(
            domain,
            ip,
            spf=(
                "v=spf1 +all"
                if rng.random() < calibration.spammer_domain_spf_prob
                else None
            ),
        )
        internet.register_host(RemoteMailHost(domain, ip, catch_all=True))
        for _ in range(rng.randint(2, 6)):
            senders.append(f"{naming.make_person_local(rng)}@{domain}")
    return senders


def _build_snowshoe_ips(
    registry: DnsRegistry, ips: IpAllocator, rng: random.Random
) -> list[str]:
    """Relay-abusing bulk hosts: clean PTR records, not on blacklists."""
    pool = []
    for i in range(24):
        ip = ips.allocate()
        registry.register_client_ptr(ip, f"mta{i}.bulk-route.example")
        pool.append(ip)
    return pool


def _build_forwarders(
    registry: DnsRegistry, ips: IpAllocator, rng: random.Random
) -> list[str]:
    """Webmail/forwarding gateways legit users occasionally send through:
    they have PTR records (pass reverse-DNS) but are outside any SPF."""
    forwarders = []
    for i in range(8):
        ip = ips.allocate()
        registry.register_client_ptr(ip, f"out{i}.webmail-gateway.example")
        forwarders.append(ip)
    return forwarders


def _build_nuisance_pool(
    scale: ScaleConfig,
    registry: DnsRegistry,
    internet: Internet,
    ips: IpAllocator,
    rng: random.Random,
) -> list[str]:
    """Persistent marketing senders users have personally blacklisted."""
    pool = []
    n_domains = max(4, scale.ext_domains // 20)
    for i in range(n_domains):
        domain = naming.make_domain(rng, suffix=f"m{i}")
        ip = ips.allocate()
        registry.register_mail_domain(domain, ip)
        internet.register_host(RemoteMailHost(domain, ip, catch_all=True))
        for _ in range(6):
            pool.append(f"promo-{rng.randint(100, 999)}@{domain}")
    return pool


def _company_sizes(
    scale: ScaleConfig, rng: random.Random
) -> list[int]:
    """Split ``total_users`` across companies log-normally: most companies
    small, a few large (Fig. 5's users histogram)."""
    weights = [math.exp(rng.gauss(0.0, 1.0)) for _ in range(scale.n_companies)]
    total_weight = sum(weights)
    sizes = [
        max(3, round(scale.total_users * w / total_weight)) for w in weights
    ]
    return sizes


def _build_companies(
    scale: ScaleConfig,
    calibration: Calibration,
    registry: DnsRegistry,
    ips: IpAllocator,
    rng: random.Random,
    contact_pool: list[str],
    nuisance_pool: list[str],
    external_domains: list[ExternalDomain],
    config_overrides: Optional[dict] = None,
) -> list[Company]:
    sizes = _company_sizes(scale, rng)
    spam_multipliers = [
        math.exp(
            rng.gauss(
                -calibration.company_spam_sigma**2 / 2,
                calibration.company_spam_sigma,
            )
        )
        for _ in range(scale.n_companies)
    ]
    # Legit volume couples to spam volume (both scale with how widely a
    # company's addresses circulate), with residual per-company noise.
    legit_multipliers = [
        spam_multipliers[i] ** calibration.legit_spam_coupling
        * math.exp(
            rng.gauss(
                -calibration.company_legit_sigma**2 / 2,
                calibration.company_legit_sigma,
            )
        )
        for i in range(scale.n_companies)
    ]
    # Normalise both multiplier sets to a volume-weighted mean of one:
    # the heavy-tailed draws keep their cross-company spread (Fig. 5),
    # but the deployment-wide aggregates stop depending on tail luck.
    _normalise_weighted(spam_multipliers, sizes)
    _normalise_weighted(legit_multipliers, sizes)
    # Trap-affinity assignment: a handful of "dirty" companies whose
    # harvested-address exposure is pathological. The paper observed that
    # the top-3 challenge senders were never listed, so dirty companies are
    # drawn from outside the heaviest spam receivers (volume and
    # list-quality exposure are unrelated in practice, §5.1).
    # Dirty-company count scales with the deployment (paper: 4 of 47).
    dirty_count = min(
        calibration.dirty_companies,
        max(1, round(scale.n_companies * calibration.dirty_companies / 47)),
    )
    # Rank by expected *challenge* volume: open relays reflect roughly
    # 2-3x more challenges per protected user than closed installations.
    eligible = sorted(
        range(scale.n_companies),
        key=lambda i: (
            sizes[i]
            * spam_multipliers[i]
            * (2.5 if i < scale.open_relays else 1.0)
        ),
    )
    keep = max(dirty_count, (3 * len(eligible)) // 5)
    eligible = eligible[:keep]
    dirty_indices = set(rng.sample(eligible, min(dirty_count, len(eligible))))
    dirty_values = list(calibration.trap_affinity_dirty)

    companies = []
    for index in range(scale.n_companies):
        company_id = f"c{index:02d}"
        domain = naming.make_domain(rng, suffix=f"corp{index}")
        mta_in_ip = ips.allocate()
        mta_out_ip = ips.allocate()
        dual = index % 3 == 0  # one third run a dedicated challenge MTA
        challenge_ip = ips.allocate() if dual else mta_out_ip
        registry.register_mail_domain(domain, mta_in_ip)
        registry.register_client_ptr(mta_out_ip, f"out.{domain}")
        if dual:
            registry.register_client_ptr(challenge_ip, f"challenge.{domain}")

        open_relay = index < scale.open_relays
        relay_domains = tuple(
            naming.make_domain(rng, suffix=f"r{index}{j}")
            for j in range(rng.randint(1, 3))
        ) if open_relay else ()
        for relay_domain in relay_domains:
            registry.register_mail_domain(relay_domain, mta_in_ip)

        n_users = sizes[index]
        locals_ = [f"user{j:03d}" for j in range(n_users)]
        users = []
        for local in locals_:
            n_contacts = rng.randint(*calibration.contacts_per_user)
            contacts = rng.sample(
                contact_pool, min(n_contacts, len(contact_pool))
            )
            n_nuisance = rng.randint(*calibration.nuisance_senders_per_user)
            nuisance = rng.sample(
                nuisance_pool, min(n_nuisance, len(nuisance_pool))
            )
            sociality = calibration.sociality_median * math.exp(
                rng.gauss(0.0, calibration.sociality_sigma)
            )
            users.append(
                UserProfile(
                    local=local,
                    address=f"{local}@{domain}",
                    sociality=sociality,
                    contacts=contacts,
                    nuisance_senders=nuisance,
                )
            )

        # Site-blocked senders live at real (resolvable) domains, so the
        # MTA's sender-rejected check — which runs after domain resolution
        # — is the one that fires for them.
        rejected = frozenset(
            f"blocked{k}@{rng.choice(external_domains).domain}"
            for k in range(3)
        )
        if index in dirty_indices and dirty_values:
            trap_affinity = dirty_values.pop(0)
        else:
            trap_affinity = rng.uniform(0.0, calibration.trap_affinity_clean_max)

        config = CompanyConfig(
            company_id=company_id,
            name=f"Company {index:02d}",
            domain=domain,
            users=tuple(locals_),
            mta_in_ip=mta_in_ip,
            mta_out_ip=mta_out_ip,
            challenge_ip=challenge_ip,
            relay_domains=relay_domains,
            rejected_senders=rejected,
            filters=FilterSettings(
                antivirus_detection_rate=calibration.antivirus_detection_rate,
                rbl_provider=_pick_rbl_provider(calibration, index),
            ),
        )
        if config_overrides:
            config = dataclasses.replace(config, **config_overrides)
        companies.append(
            Company(
                config=config,
                users=users,
                spam_multiplier=spam_multipliers[index],
                legit_multiplier=legit_multipliers[index],
                trap_affinity=trap_affinity,
            )
        )
    return companies


def _normalise_weighted(multipliers: list, weights: list) -> None:
    """Rescale *multipliers* in place so sum(w*m) == sum(w)."""
    weighted = sum(w * m for w, m in zip(weights, multipliers))
    if weighted <= 0:
        return
    factor = sum(weights) / weighted
    for i in range(len(multipliers)):
        multipliers[i] *= factor


def _pick_rbl_provider(calibration: Calibration, index: int) -> str:
    """Assign the company's blacklist provider by market share.

    Deterministic round-robin over a weighted pattern, so the provider mix
    is balanced between open-relay and closed-relay installations (keeping
    the Fig. 3 open-vs-closed comparison free of provider noise).
    """
    pattern: list[str] = []
    for name, weight in calibration.rbl_provider_weights:
        pattern.extend([name] * max(1, round(weight * 20)))
    return pattern[index % len(pattern)]


def _build_newsletters(
    scale: ScaleConfig,
    calibration: Calibration,
    registry: DnsRegistry,
    internet: Internet,
    ips: IpAllocator,
    rng: random.Random,
    companies: list[Company],
) -> list[NewsletterSource]:
    n_sources = max(6, scale.total_users // 15)
    sources = []
    for i in range(n_sources):
        domain = f"scn-{i}.{rng.choice(('com', 'net'))}"
        ip = ips.allocate()
        registry.register_mail_domain(
            domain,
            ip,
            spf=(
                f"v=spf1 ip4:{ip} -all"
                if rng.random() < calibration.newsletter_spf_prob
                else None
            ),
        )
        internet.register_host(RemoteMailHost(domain, ip, catch_all=True))
        letter = "abcdefghijklmnopqrstuvwxyz"[i % 26]
        senders = [
            f"dept-{letter}.{p}@{domain}"
            for p in rng.sample("pqrstuvwxyz", rng.randint(3, 6))
        ]
        solves = rng.random() < calibration.newsletter_solver_share
        solve_prob = (
            rng.uniform(*calibration.newsletter_solve_range) if solves else 0.0
        )
        sources.append(
            NewsletterSource(
                source_id=f"nl-{i}",
                domain=domain,
                ip=ip,
                senders=senders,
                period_days=rng.uniform(5.0, 9.0),
                phase_days=rng.uniform(0.0, 9.0),
                solve_prob=solve_prob,
            )
        )
    # Subscribe users: ~ newsletter_rate × period subscriptions per user.
    for company in companies:
        for user in company.users:
            expected = calibration.newsletter_rate * 7.0
            n_subs = poisson(rng, expected)
            if n_subs <= 0:
                continue
            for source in rng.sample(sources, min(n_subs, len(sources))):
                source.subscribers.append((company.company_id, user.address))
    return sources


def _build_marketing(
    scale: ScaleConfig,
    calibration: Calibration,
    registry: DnsRegistry,
    internet: Internet,
    ips: IpAllocator,
    rng: random.Random,
) -> list[MarketingSource]:
    """Bulk marketing operations (Fig. 6's high sender-similarity clusters)."""
    n_sources = max(3, scale.total_users // 90)
    sources = []
    for i in range(n_sources):
        domain = f"scn-m{i}.{rng.choice(('com', 'net'))}"
        ip = ips.allocate()
        registry.register_mail_domain(
            domain,
            ip,
            spf=(
                f"v=spf1 ip4:{ip} -all"
                if rng.random() < calibration.newsletter_spf_prob
                else None
            ),
        )
        internet.register_host(RemoteMailHost(domain, ip, catch_all=True))
        letter = "abcdefghijklmnopqrstuvwxyz"[i % 26]
        senders = [
            f"dept-{letter}.{p}@{domain}"
            for p in rng.sample("pqrstuvwxyz", rng.randint(3, 5))
        ]
        solves = rng.random() < calibration.marketing_solver_share
        solve_prob = (
            rng.uniform(*calibration.marketing_solve_range) if solves else 0.0
        )
        sources.append(
            MarketingSource(
                source_id=f"mk-{i}",
                domain=domain,
                ip=ip,
                senders=senders,
                period_days=rng.uniform(*calibration.marketing_period_days),
                phase_days=rng.uniform(0.0, 8.0),
                solve_prob=solve_prob,
                coverage=rng.uniform(*calibration.marketing_coverage),
            )
        )
    return sources
