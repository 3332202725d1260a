"""Figure 11 / §5.1: challenge-server blacklisting.

Two measurement methods, exactly as in the paper:

1. **Bounce-log method** (Fig. 11): per company, the ratio between
   challenges sent and blacklist-related delivery errors received; the
   paper plots it on a log scale and finds no relationship with server
   size.
2. **Probe method** (§5.1): a script queried eight public DNSBLs for every
   challenge-server IP every four hours (132 days in the paper); 75 % of
   servers never appeared anywhere, a few were listed for under a day, and
   four servers were listed for 17/33/113/129 days — with no link to the
   number of challenges sent (the top-3 senders were never listed).
"""

from __future__ import annotations

from typing import Sequence
from dataclasses import dataclass

from repro.analysis.context import DeploymentInfo
from repro.analysis.store import LogStore
from repro.util.render import ComparisonTable, TextTable
from repro.util.stats import pearson, safe_ratio


@dataclass(frozen=True)
class CompanyBlacklisting:
    company_id: str
    challenges_sent: int
    blacklist_bounces: int

    @property
    def bounce_ratio(self) -> float:
        return safe_ratio(self.blacklist_bounces, self.challenges_sent)


@dataclass(frozen=True)
class ServerListing:
    ip: str
    challenges_sent: int
    listed_days: float
    probed_days: float


@dataclass(frozen=True)
class BlacklistingStats:
    companies: Sequence[CompanyBlacklisting]
    servers: Sequence[ServerListing]
    #: Pearson r between per-company challenge volume and bounce ratio.
    volume_bounce_correlation: float
    #: Pearson r between per-server challenge volume and listed days.
    volume_listing_correlation: float
    horizon_days: float

    @property
    def never_listed_share(self) -> float:
        if not self.servers:
            return 0.0
        return sum(1 for s in self.servers if s.listed_days == 0) / len(
            self.servers
        )

    @property
    def top_listed_days(self) -> list[float]:
        return sorted(
            (s.listed_days for s in self.servers), reverse=True
        )[:6]

    @property
    def top_listed_share(self) -> list[float]:
        """:attr:`top_listed_days` as shares of the observation window."""
        return [days / self.horizon_days for days in self.top_listed_days]

    def top_senders_listed_days(self, top: int = 3) -> list[float]:
        """Listed days of the top challenge senders (paper: all zero)."""
        ranked = sorted(
            self.servers, key=lambda s: s.challenges_sent, reverse=True
        )
        return [s.listed_days for s in ranked[:top]]

    @property
    def top_senders_max_listed_share(self) -> float:
        """Longest listing among the top-3 challenge senders, as a share
        of the observation window (paper: 0)."""
        return max(self.top_senders_listed_days(), default=0.0) / (
            self.horizon_days
        )


def compute(store: LogStore, info: DeploymentInfo) -> BlacklistingStats:
    index = store.index()
    challenges_by_company = index.challenges.per_company
    challenges_by_ip = index.challenges.per_ip
    outcomes_per_company = index.outcomes.per_company

    companies = [
        CompanyBlacklisting(
            company_id=company_id,
            challenges_sent=challenges_by_company[company_id],
            blacklist_bounces=(
                outcomes_per_company[company_id].bounced_blacklisted
                if company_id in outcomes_per_company
                else 0
            ),
        )
        for company_id in sorted(challenges_by_company)
    ]

    probes = index.probes
    listed_days_by_ip = probes.listed_days_by_ip
    probed_ips = probes.probed_ips
    probe_days = probes.probe_days
    servers = [
        ServerListing(
            ip=ip,
            challenges_sent=challenges_by_ip.get(ip, 0),
            listed_days=float(len(listed_days_by_ip.get(ip, ()))),
            probed_days=float(len(probe_days)),
        )
        for ip in sorted(probed_ips)
    ]

    if len(companies) >= 2:
        volume_bounce = pearson(
            [float(c.challenges_sent) for c in companies],
            [c.bounce_ratio for c in companies],
        )
    else:
        volume_bounce = 0.0
    if len(servers) >= 2:
        volume_listing = pearson(
            [float(s.challenges_sent) for s in servers],
            [s.listed_days for s in servers],
        )
    else:
        volume_listing = 0.0
    return BlacklistingStats(
        companies=companies,
        servers=servers,
        volume_bounce_correlation=volume_bounce,
        volume_listing_correlation=volume_listing,
        horizon_days=info.horizon_days,
    )


def build_table(stats: BlacklistingStats, info: DeploymentInfo) -> ComparisonTable:
    table = ComparisonTable("Fig. 11 / Sec. 5.1 — challenge-server blacklisting")
    table.add(
        "servers never listed in any DNSBL",
        75.0,
        100.0 * stats.never_listed_share,
        "%",
    )
    top = stats.top_listed_days
    scale = info.horizon_days / 132.0  # paper probed for 132 days
    paper_top = [129.0, 113.0, 33.0, 17.0]
    for i, days in enumerate(top[:4]):
        paper = paper_top[i] * scale if i < len(paper_top) else None
        table.add(
            f"#{i + 1} most-listed server, days listed (paper x window ratio)",
            paper,
            days,
        )
    table.add(
        "corr(challenges sent, blacklist bounce ratio) [paper: none]",
        0.0,
        stats.volume_bounce_correlation,
    )
    table.add(
        "corr(challenges sent, days listed) [paper: none]",
        0.0,
        stats.volume_listing_correlation,
    )
    top_sender_days = stats.top_senders_listed_days()
    table.add(
        "max listed-days among top-3 challenge senders (paper: 0)",
        0.0,
        max(top_sender_days) if top_sender_days else 0.0,
    )
    return table


def build_scatter_table(stats: BlacklistingStats, top: int = 12) -> TextTable:
    table = TextTable(
        headers=["company", "challenges", "bl-bounces", "bounce ratio"],
        title="Fig. 11 — per-company blacklist bounce ratios (top by volume)",
    )
    ranked = sorted(
        stats.companies, key=lambda c: c.challenges_sent, reverse=True
    )
    for company in ranked[:top]:
        table.add_row(
            company.company_id,
            company.challenges_sent,
            company.blacklist_bounces,
            f"{company.bounce_ratio:.4f}",
        )
    return table


def render(store: LogStore, info: DeploymentInfo) -> str:
    stats = compute(store, info)
    return "\n\n".join(
        [
            build_table(stats, info).render(),
            build_scatter_table(stats).render(),
        ]
    )
