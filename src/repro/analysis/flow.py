"""Figure 1: the weighted lifecycle of incoming emails.

The paper normalises the whole pipeline to 1,000 messages arriving at a
non-open-relay MTA-IN: ~751 dropped by the MTA, 249 reach the dispatcher,
31 to the white spool, ~4 black, ~214 gray, the filters drop the bulk of
the gray spool, 48 challenges go out, and ~2 messages are eventually
released to the inbox (solved challenge or digest).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.store import LogStore
from repro.core.spools import ReleaseMechanism
from repro.util.render import ComparisonTable
from repro.util.stats import safe_ratio


@dataclass(frozen=True)
class LifecycleFlow:
    """Everything in Fig. 1, per 1000 messages at a closed-relay MTA-IN."""

    mta_in: float  # = 1000 by construction
    dropped_at_mta: float
    to_dispatcher: float
    white: float
    black: float
    gray: float
    filter_dropped: float
    quarantined: float
    challenges_sent: float
    released_captcha: float
    released_digest: float
    expired: float

    @property
    def released_total(self) -> float:
        return self.released_captcha + self.released_digest

    @property
    def gray_white_ratio(self) -> float:
        return safe_ratio(self.gray, self.white)

    @property
    def conserved(self) -> bool:
        """Every message is accounted for exactly once at each stage."""
        return all(
            abs(total - parts) < 1e-6
            for total, parts in (
                (1000.0, self.dropped_at_mta + self.to_dispatcher),
                (self.to_dispatcher, self.white + self.black + self.gray),
                (self.gray, self.filter_dropped + self.quarantined),
            )
        )


#: Figure 1's published per-1000 numbers (blank entries derived from text).
PAPER_FLOW = {
    "dropped_at_mta": 751.0,
    "to_dispatcher": 249.0,
    "white": 31.0,
    "challenges_sent": 48.0,
    "released_total": 2.0,
}


def compute(store: LogStore) -> LifecycleFlow:
    """Re-derive the per-1000 lifecycle from MTA + dispatch + release logs,
    restricted to non-open-relay companies like the paper's Figure 1."""
    index = store.index()
    mta = index.mta
    closed_companies = mta.closed_companies
    mta_total = mta.closed_total
    mta_dropped = mta.closed_dropped
    if mta_total == 0:
        raise ValueError("no closed-relay MTA records: cannot compute Fig. 1")
    scale = 1000.0 / mta_total

    closed = index.dispatch.closed
    white, black, gray = closed.white, closed.black, closed.gray
    filter_dropped = closed.filter_dropped
    quarantined = closed.quarantined
    challenges = closed.challenges

    releases_per_company = index.releases.per_company
    released_captcha = sum(
        releases_per_company[company].get(ReleaseMechanism.CAPTCHA, 0)
        for company in closed_companies
        if company in releases_per_company
    )
    released_digest = sum(
        releases_per_company[company].get(ReleaseMechanism.DIGEST, 0)
        for company in closed_companies
        if company in releases_per_company
    )
    expiries_per_company = index.expiries.per_company
    expired = sum(
        expiries_per_company[company]
        for company in closed_companies
        if company in expiries_per_company
    )
    return LifecycleFlow(
        mta_in=1000.0,
        dropped_at_mta=mta_dropped * scale,
        to_dispatcher=(mta_total - mta_dropped) * scale,
        white=white * scale,
        black=black * scale,
        gray=gray * scale,
        filter_dropped=filter_dropped * scale,
        quarantined=quarantined * scale,
        challenges_sent=challenges * scale,
        released_captcha=released_captcha * scale,
        released_digest=released_digest * scale,
        expired=expired * scale,
    )


def build_table(flow: LifecycleFlow) -> ComparisonTable:
    table = ComparisonTable(
        "Fig. 1 — lifecycle of incoming email, per 1000 messages at MTA-IN "
        "(non-open-relay servers)"
    )
    table.add("dropped at MTA-IN", PAPER_FLOW["dropped_at_mta"], flow.dropped_at_mta)
    table.add("reach the CR dispatcher", PAPER_FLOW["to_dispatcher"], flow.to_dispatcher)
    table.add("white spool (instant inbox)", PAPER_FLOW["white"], flow.white)
    table.add("black spool (dropped)", None, flow.black)
    table.add("gray spool", None, flow.gray)
    table.add("dropped by gray filters", None, flow.filter_dropped)
    table.add("quarantined", None, flow.quarantined)
    table.add("challenges sent", PAPER_FLOW["challenges_sent"], flow.challenges_sent)
    table.add(
        "released to inbox (captcha+digest)",
        PAPER_FLOW["released_total"],
        flow.released_total,
    )
    table.add("expired in quarantine", None, flow.expired)
    return table


def render(store: LogStore) -> str:
    return build_table(compute(store)).render()
