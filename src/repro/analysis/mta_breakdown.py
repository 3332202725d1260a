"""MTA-IN treatment: the §2 drop-reason table and Figure 2.

Paper anchors (non-open-relay servers):

* drop reasons: malformed 0.06 %, unresolvable domain 4.19 %, no relay
  2.27 %, sender rejected 0.03 %, unknown recipient 62.36 %;
* "more than 75 % of the incoming messages" dropped at the MTA, while
  "open-relay systems pass most of the messages to the next layer".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.analysis.store import LogStore
from repro.core.mta_in import DropReason
from repro.util.render import ComparisonTable
from repro.util.stats import safe_ratio

#: The paper's drop-table, as fractions of all incoming messages.
PAPER_DROP_SHARES: Mapping[DropReason, float] = {
    DropReason.MALFORMED: 0.0006,
    DropReason.UNRESOLVABLE_DOMAIN: 0.0419,
    DropReason.NO_RELAY: 0.0227,
    DropReason.SENDER_REJECTED: 0.0003,
    DropReason.UNKNOWN_RECIPIENT: 0.6236,
}

#: Figure 1: 249 of 1000 messages reach the CR filter at closed relays.
PAPER_CLOSED_PASS_RATE = 0.249


@dataclass(frozen=True)
class MtaBreakdown:
    """Measured MTA-IN statistics."""

    total: int
    closed_total: int
    open_total: int
    #: Fractions of *closed-relay* traffic per drop reason.
    drop_shares: Mapping[DropReason, float]
    closed_pass_rate: float
    open_pass_rate: float

    @property
    def open_closed_pass_ratio(self) -> float:
        """How many times more often an open relay passes a message on."""
        return safe_ratio(self.open_pass_rate, self.closed_pass_rate)


def compute(store: LogStore) -> MtaBreakdown:
    """Re-measure the MTA drop table from the MTA logs."""
    mta = store.index().mta
    drop_shares = {
        reason: safe_ratio(mta.closed_drops.get(reason, 0), mta.closed_total)
        for reason in DropReason
    }
    return MtaBreakdown(
        total=mta.closed_total + mta.open_total,
        closed_total=mta.closed_total,
        open_total=mta.open_total,
        drop_shares=drop_shares,
        closed_pass_rate=safe_ratio(mta.closed_accepted, mta.closed_total),
        open_pass_rate=safe_ratio(mta.open_accepted, mta.open_total),
    )


def build_table(breakdown: MtaBreakdown) -> ComparisonTable:
    table = ComparisonTable(
        "Sec. 2 drop table + Fig. 2 — MTA-IN email treatment "
        "(closed-relay servers)"
    )
    labels = {
        DropReason.MALFORMED: "Malformed email",
        DropReason.UNRESOLVABLE_DOMAIN: "Unable to resolve the domain",
        DropReason.NO_RELAY: "No relay",
        DropReason.SENDER_REJECTED: "Sender rejected",
        DropReason.UNKNOWN_RECIPIENT: "Unknown recipient",
    }
    for reason in DropReason:
        table.add(
            f"dropped: {labels[reason]}",
            100.0 * PAPER_DROP_SHARES[reason],
            100.0 * breakdown.drop_shares[reason],
            "%",
        )
    table.add(
        "passed to CR filter (closed relay)",
        100.0 * PAPER_CLOSED_PASS_RATE,
        100.0 * breakdown.closed_pass_rate,
        "%",
    )
    table.add(
        "passed to CR filter (open relay)",
        None,
        100.0 * breakdown.open_pass_rate,
        "%",
    )
    return table


def render(store: LogStore) -> str:
    return build_table(compute(store)).render()
