"""Table 1: general statistics of the collected data.

Absolute counts obviously scale with the simulated volume, so the
comparison column reports the paper's value *normalised to our message
volume* where a meaningful normalisation exists (shares of total traffic),
and raw measured counts otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.context import DeploymentInfo
from repro.analysis.store import LogStore
from repro.core.spools import ReleaseMechanism
from repro.util.render import TextTable
from repro.util.stats import safe_ratio

#: The paper's Table 1, verbatim.
PAPER_TABLE1 = {
    "companies": 47,
    "open_relays": 13,
    "users": 19_426,
    "total_incoming": 90_368_573,
    "gray": 11_590_532,
    "black": 349_697,
    "white": 2_737_978,
    "dropped_at_mta": 75_690_366,
    "challenges_sent": 4_299_610,
    "whitelisted_from_digest": 55_850,
    "solved_captchas": 150_809,
    "dropped_reverse_dns": 3_526_506,
    "dropped_rbl": 4_973_755,
    "dropped_antivirus": 267_630,
    "emails_per_day": 797_679,
    "white_per_day": 31_920,
    "challenges_per_day": 53_764,
    "analyzed_days": 5_249,
}


@dataclass(frozen=True)
class GeneralStats:
    companies: int
    open_relays: int
    users: int
    total_incoming: int
    gray: int
    black: int
    white: int
    dropped_at_mta: int
    challenges_sent: int
    whitelisted_from_digest: int
    solved_captchas: int
    dropped_reverse_dns: int
    dropped_rbl: int
    dropped_antivirus: int
    emails_per_day: float
    white_per_day: float
    challenges_per_day: float
    analyzed_days: float

    @property
    def accounted_incoming(self) -> int:
        """Every spool plus the MTA drops: Table 1's total, recounted."""
        return self.white + self.black + self.gray + self.dropped_at_mta

    @property
    def black_white_ratio(self) -> float:
        return safe_ratio(self.black, self.white)

    @property
    def dns_rbl_antivirus_ratio(self) -> float:
        """Reverse-DNS plus RBL drops over antivirus drops."""
        return safe_ratio(
            self.dropped_reverse_dns + self.dropped_rbl, self.dropped_antivirus
        )


def compute(store: LogStore, info: DeploymentInfo) -> GeneralStats:
    index = store.index()
    mta = index.mta
    dispatch = index.dispatch
    total = mta.total
    dropped = mta.dropped
    white, black, gray = dispatch.white, dispatch.black, dispatch.gray
    drops = {
        name: dispatch.filter_drops.get(name, 0)
        for name in ("reverse_dns", "rbl", "antivirus")
    }
    challenges = len(store.challenges)
    solved = index.web.solve_total
    digest_whitelisted = index.releases.mechanism_counts.get(
        ReleaseMechanism.DIGEST, 0
    )
    days = info.horizon_days
    return GeneralStats(
        companies=info.n_companies,
        open_relays=info.n_open_relays,
        users=info.total_users,
        total_incoming=total,
        gray=gray,
        black=black,
        white=white,
        dropped_at_mta=dropped,
        challenges_sent=challenges,
        whitelisted_from_digest=digest_whitelisted,
        solved_captchas=solved,
        dropped_reverse_dns=drops["reverse_dns"],
        dropped_rbl=drops["rbl"],
        dropped_antivirus=drops["antivirus"],
        emails_per_day=total / days,
        white_per_day=white / days,
        challenges_per_day=challenges / days,
        analyzed_days=days * info.n_companies,
    )


def build_table(stats: GeneralStats) -> TextTable:
    """Render Table 1 with per-mille-of-traffic comparison columns."""
    table = TextTable(
        headers=["quantity", "paper", "paper (share)", "measured", "measured (share)"],
        title="Table 1 — general statistics of the collected data",
    )
    paper_total = PAPER_TABLE1["total_incoming"]
    rows = [
        ("Number of companies", "companies", stats.companies, False),
        ("Open relays", "open_relays", stats.open_relays, False),
        ("Users protected by CR", "users", stats.users, False),
        ("Total incoming emails", "total_incoming", stats.total_incoming, False),
        ("Messages in the gray spool", "gray", stats.gray, True),
        ("Messages in the black spool", "black", stats.black, True),
        ("Messages in the white spool", "white", stats.white, True),
        ("Total dropped at MTA", "dropped_at_mta", stats.dropped_at_mta, True),
        ("Challenges sent", "challenges_sent", stats.challenges_sent, True),
        (
            "Emails whitelisted from digest",
            "whitelisted_from_digest",
            stats.whitelisted_from_digest,
            True,
        ),
        ("Solved CAPTCHAs", "solved_captchas", stats.solved_captchas, True),
        (
            "Dropped by reverse DNS filter",
            "dropped_reverse_dns",
            stats.dropped_reverse_dns,
            True,
        ),
        ("Dropped by RBL filter", "dropped_rbl", stats.dropped_rbl, True),
        (
            "Dropped by antivirus filter",
            "dropped_antivirus",
            stats.dropped_antivirus,
            True,
        ),
    ]
    for label, key, measured, share in rows:
        paper_value = PAPER_TABLE1[key]
        paper_share = (
            f"{1000.0 * paper_value / paper_total:.2f}/1000" if share else "-"
        )
        measured_share = (
            f"{1000.0 * measured / max(stats.total_incoming, 1):.2f}/1000"
            if share
            else "-"
        )
        table.add_row(label, paper_value, paper_share, measured, measured_share)
    table.add_row(
        "Emails (per day)",
        PAPER_TABLE1["emails_per_day"],
        "-",
        round(stats.emails_per_day),
        "-",
    )
    table.add_row(
        "Challenges sent (per day)",
        PAPER_TABLE1["challenges_per_day"],
        "-",
        round(stats.challenges_per_day),
        "-",
    )
    table.add_row(
        "Total number of days",
        PAPER_TABLE1["analyzed_days"],
        "-",
        round(stats.analyzed_days),
        "-",
    )
    return table


def render(store: LogStore, info: DeploymentInfo) -> str:
    return build_table(compute(store, info)).render()
