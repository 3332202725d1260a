"""Figure 12 / §5.2: the offline SPF validation test.

The paper ran an SPF check over every gray-spool email (SPF was *not* part
of the deployed product) and grouped results by the fate of the
corresponding challenge. Dropping SPF hard-fails would have avoided ~9 % of
the expired challenges and ~4.10 % of the bounced ones — cutting "bad"
challenges by ~2.5 % overall — at the cost of 0.25 % of the challenges that
were actually solved.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from repro.analysis.store import LogStore
from repro.core.filters.spf import SpfResult
from repro.net.smtp import FinalStatus
from repro.util.render import ComparisonTable, TextTable
from repro.util.stats import safe_ratio


class ChallengeFate(enum.Enum):
    """Fig. 12's message categories."""

    SOLVED = "solved"
    DELIVERED_UNSOLVED = "delivered_unsolved"
    BOUNCED = "bounced"
    EXPIRED = "expired"
    PENDING = "pending"  # challenge outcome unknown at window end


@dataclass(frozen=True)
class SpfStats:
    #: fate -> Counter of SpfResult over gray-spool messages.
    by_fate: Mapping[ChallengeFate, Counter]

    def fail_share(self, fate: ChallengeFate) -> float:
        counter = self.by_fate.get(fate, Counter())
        total = sum(counter.values())
        return safe_ratio(counter.get(SpfResult.FAIL, 0), total)

    @property
    def fail_shares(self) -> dict:
        """:meth:`fail_share` of every fate."""
        return {fate: self.fail_share(fate) for fate in ChallengeFate}

    @property
    def bad_to_solved_fail_ratio(self) -> float:
        """How many times harder an SPF-fail drop prunes bad challenges
        than solved ones (infinite when it prunes no solved one)."""
        solved = self.fail_share(ChallengeFate.SOLVED)
        bad = self.bad_challenge_fail_share
        if solved == 0:
            return math.inf if bad else 0.0
        return bad / solved

    @property
    def bad_challenge_fail_share(self) -> float:
        """SPF-fail share among "bad" challenge messages (bounced, expired,
        delivered-but-unsolved) — the paper's overall 2.5 % reduction."""
        bad = Counter()
        for fate in (
            ChallengeFate.BOUNCED,
            ChallengeFate.EXPIRED,
            ChallengeFate.DELIVERED_UNSOLVED,
        ):
            bad.update(self.by_fate.get(fate, Counter()))
        total = sum(bad.values())
        return safe_ratio(bad.get(SpfResult.FAIL, 0), total)


def compute(store: LogStore) -> SpfStats:
    index = store.index()
    solved_ids = index.web.solved_ids
    outcome_by_id = index.outcomes.by_challenge

    by_fate: dict = {fate: Counter() for fate in ChallengeFate}
    for record in index.dispatch.quarantined_with_challenge:
        key = (record.company_id, record.challenge_id)
        outcome = outcome_by_id.get(key)
        if outcome is None:
            fate = ChallengeFate.PENDING
        elif key in solved_ids:
            fate = ChallengeFate.SOLVED
        elif outcome.status is FinalStatus.DELIVERED:
            fate = ChallengeFate.DELIVERED_UNSOLVED
        elif outcome.status is FinalStatus.EXPIRED:
            fate = ChallengeFate.EXPIRED
        else:
            fate = ChallengeFate.BOUNCED
        by_fate[fate][record.spf] += 1
    return SpfStats(by_fate=by_fate)


def build_table(stats: SpfStats) -> ComparisonTable:
    table = ComparisonTable(
        "Fig. 12 — SPF validation over the gray spool "
        "(share of each category an SPF-fail drop would remove)"
    )
    table.add("expired challenges", 9.0, 100.0 * stats.fail_share(ChallengeFate.EXPIRED), "%")
    table.add("bounced challenges", 4.10, 100.0 * stats.fail_share(ChallengeFate.BOUNCED), "%")
    table.add(
        "delivered-but-unsolved challenges",
        None,
        100.0 * stats.fail_share(ChallengeFate.DELIVERED_UNSOLVED),
        "%",
    )
    table.add('"bad" challenges overall', 2.5, 100.0 * stats.bad_challenge_fail_share, "%")
    table.add("solved challenges (cost)", 0.25, 100.0 * stats.fail_share(ChallengeFate.SOLVED), "%")
    return table


def build_breakdown_table(stats: SpfStats) -> TextTable:
    table = TextTable(
        headers=["challenge fate", "messages", "pass", "fail", "none/other"],
        title="Fig. 12 — SPF result breakdown by challenge fate",
    )
    for fate in ChallengeFate:
        counter = stats.by_fate.get(fate, Counter())
        total = sum(counter.values())
        if total == 0:
            continue
        other = total - counter.get(SpfResult.PASS, 0) - counter.get(SpfResult.FAIL, 0)
        table.add_row(
            fate.value,
            total,
            f"{100.0 * counter.get(SpfResult.PASS, 0) / total:.1f}%",
            f"{100.0 * counter.get(SpfResult.FAIL, 0) / total:.1f}%",
            f"{100.0 * other / total:.1f}%",
        )
    return table


def render(store: LogStore) -> str:
    stats = compute(store)
    return "\n\n".join(
        [build_table(stats).render(), build_breakdown_table(stats).render()]
    )
