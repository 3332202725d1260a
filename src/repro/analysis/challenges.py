"""Figure 4: challenge delivery status and CAPTCHA statistics.

Paper anchors:

* Fig. 4(a): only 49 % of challenges were delivered; of the undelivered
  remainder, 71.7 % bounced because the recipient did not exist, a small
  portion bounced because the challenge server was blacklisted, and the
  rest expired after repeated attempts;
* §3.2: 94 % of delivered challenges' CAPTCHA URLs were never opened, 4 %
  were solved, 0.25 % were visited but not solved (Table 1's counts imply
  ~3.5 % of *sent* challenges solved — the paper reports both);
* Fig. 4(b): solvers never needed more than five attempts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from repro.analysis.store import LogStore
from repro.util.render import ComparisonTable, TextTable
from repro.util.stats import safe_ratio


@dataclass(frozen=True)
class ChallengeStats:
    sent: int
    resolved: int  # challenges with a final delivery status
    delivered: int
    bounced_nonexistent: int
    bounced_blacklisted: int
    bounced_other: int
    expired: int
    opened: int
    solved: int
    visited_not_solved: int
    #: attempts (1..5+) -> number of solved challenges needing that many.
    attempts_histogram: Mapping[int, int]

    @property
    def delivered_share(self) -> float:
        return safe_ratio(self.delivered, self.resolved)

    @property
    def undelivered_share(self) -> float:
        return 1.0 - self.delivered_share

    @property
    def nonexistent_share_of_undelivered(self) -> float:
        undelivered = self.resolved - self.delivered
        return safe_ratio(self.bounced_nonexistent, undelivered)

    @property
    def blacklisted_share_of_undelivered(self) -> float:
        return safe_ratio(
            self.bounced_blacklisted, self.resolved - self.delivered
        )

    @property
    def never_opened_share(self) -> float:
        return 1.0 - safe_ratio(self.opened, self.delivered)

    @property
    def solved_share_of_delivered(self) -> float:
        return safe_ratio(self.solved, self.delivered)

    @property
    def solved_share_of_sent(self) -> float:
        return safe_ratio(self.solved, self.sent)

    @property
    def visited_not_solved_share(self) -> float:
        return safe_ratio(self.visited_not_solved, self.delivered)

    @property
    def max_attempts(self) -> int:
        return max(self.attempts_histogram, default=0)


def compute(store: LogStore) -> ChallengeStats:
    index = store.index()
    outcomes = index.outcomes
    web = index.web
    delivered_ids = outcomes.delivered_ids
    opened_ids = web.opened_ids
    solved_ids = web.solved_ids
    attempts_by_challenge = web.attempts_by_challenge

    attempts_histogram: Counter = Counter()
    for key in solved_ids:
        attempts_histogram[attempts_by_challenge[key]] += 1

    opened_delivered = opened_ids & delivered_ids
    solved_delivered = solved_ids & delivered_ids
    return ChallengeStats(
        sent=len(store.challenges),
        resolved=outcomes.resolved,
        delivered=outcomes.delivered,
        bounced_nonexistent=outcomes.bounced_nonexistent,
        bounced_blacklisted=outcomes.bounced_blacklisted,
        bounced_other=outcomes.bounced_other,
        expired=outcomes.expired,
        opened=len(opened_delivered),
        solved=len(solved_delivered),
        visited_not_solved=len(opened_delivered - solved_delivered),
        attempts_histogram=dict(attempts_histogram),
    )


def build_delivery_table(stats: ChallengeStats) -> ComparisonTable:
    table = ComparisonTable("Fig. 4(a) — challenge delivery status distribution")
    table.add("delivered", 49.0, 100.0 * stats.delivered_share, "%")
    table.add("undelivered (bounced or expired)", 51.0, 100.0 * stats.undelivered_share, "%")
    table.add(
        "of undelivered: non-existent recipient",
        71.7,
        100.0 * stats.nonexistent_share_of_undelivered,
        "%",
    )
    undelivered = max(stats.resolved - stats.delivered, 1)
    table.add(
        "of undelivered: server blacklisted",
        None,
        100.0 * stats.blacklisted_share_of_undelivered,
        "%",
    )
    table.add(
        "of undelivered: expired after retries",
        None,
        100.0 * stats.expired / undelivered,
        "%",
    )
    return table


def build_web_table(stats: ChallengeStats) -> ComparisonTable:
    table = ComparisonTable("Sec. 3.2 / Fig. 4(b) — CAPTCHA web statistics")
    table.add(
        "delivered challenges never opened",
        94.0,
        100.0 * stats.never_opened_share,
        "%",
    )
    table.add(
        "solved (of delivered; paper Sec 3.2: 4%)",
        4.0,
        100.0 * stats.solved_share_of_delivered,
        "%",
    )
    table.add(
        "solved (of sent; paper Table 1: 3.5%)",
        3.5,
        100.0 * stats.solved_share_of_sent,
        "%",
    )
    table.add(
        "visited but not solved",
        0.25,
        100.0 * stats.visited_not_solved_share,
        "%",
    )
    table.add("max CAPTCHA attempts observed", 5, stats.max_attempts)
    return table


def build_attempts_table(stats: ChallengeStats) -> TextTable:
    table = TextTable(
        headers=["attempts", "solved challenges", "share"],
        title="Fig. 4(b) — tries required to solve the CAPTCHA",
    )
    total = sum(stats.attempts_histogram.values()) or 1
    for attempts in sorted(stats.attempts_histogram):
        count = stats.attempts_histogram[attempts]
        table.add_row(attempts, count, f"{100.0 * count / total:.2f}%")
    return table


def render(store: LogStore) -> str:
    stats = compute(store)
    return "\n\n".join(
        [
            build_delivery_table(stats).render(),
            build_web_table(stats).render(),
            build_attempts_table(stats).render(),
        ]
    )
