"""Figure 9/10 and §4.3: whitelist change rate and digest sizes.

Paper anchors (two-month monitoring window):

* 9,267 whitelists were modified at least once; only 6.8 % averaged at
  least one new entry per day, 2.1 % at least two, 0.2 % at least five;
* on average ~0.3 new entries per user per day;
* Fig. 9's histogram of new entries per 60 days:
  1–10: 51.10 %, 10–30: 29.50 %, 30–60: 12.59 %, 60–120: 4.75 %,
  120–240: 1.62 %, 240–600: 0.35 %, >600: 0.10 %;
* Fig. 10: daily digest sizes vary wildly between users — some see large
  steady digests, others small ones with anomalous peaks.

Measured counts are normalised to the paper's 60-day window through the
run's effective churn days (horizon × volume scale — see
:class:`~repro.analysis.context.DeploymentInfo`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.context import DeploymentInfo
from repro.analysis.store import LogStore
from repro.util.render import ComparisonTable, TextTable
from repro.util.stats import safe_ratio

#: Fig. 9 bin edges (new whitelist entries per 60 days) and paper shares.
FIG9_BINS = ((1, 10), (10, 30), (30, 60), (60, 120), (120, 240), (240, 600))
FIG9_PAPER_SHARES = (51.10, 29.50, 12.59, 4.75, 1.62, 0.35, 0.10)  # last: >600


@dataclass(frozen=True)
class ChurnStats:
    modified_whitelists: int
    #: Normalised additions per 60 days, one value per modified whitelist.
    additions_per_60d: Sequence[float]
    #: Fig. 9 shares (percent), aligned with FIG9_PAPER_SHARES.
    bin_shares: Sequence[float]
    share_ge_1_per_day: float
    share_ge_2_per_day: float
    share_ge_5_per_day: float
    additions_per_user_day: float


@dataclass(frozen=True)
class DigestSeries:
    """One user's daily digest-size series (Fig. 10)."""

    company_id: str
    user: str
    series: Mapping[int, int]

    @property
    def mean(self) -> float:
        if not self.series:
            return 0.0
        return sum(self.series.values()) / len(self.series)

    @property
    def peak(self) -> int:
        return max(self.series.values(), default=0)


def compute(store: LogStore, info: DeploymentInfo) -> ChurnStats:
    effective_days = max(info.effective_churn_days, 1e-9)
    counts = store.index().whitelist.per_user_counts

    per_60d = sorted(
        count * 60.0 / effective_days for count in counts.values()
    )
    n = len(per_60d)
    bin_counts = [0] * (len(FIG9_BINS) + 1)
    for value in per_60d:
        for i, (low, high) in enumerate(FIG9_BINS):
            if low <= value < high:
                bin_counts[i] += 1
                break
        else:
            if value >= FIG9_BINS[-1][1]:
                bin_counts[-1] += 1
            else:
                bin_counts[0] += 1  # <1 entry/60d folds into the first bin

    per_day = [v / 60.0 for v in per_60d]
    total_additions = sum(counts.values())
    return ChurnStats(
        modified_whitelists=n,
        additions_per_60d=per_60d,
        bin_shares=[100.0 * safe_ratio(c, n) for c in bin_counts],
        share_ge_1_per_day=safe_ratio(sum(1 for v in per_day if v >= 1), n),
        share_ge_2_per_day=safe_ratio(sum(1 for v in per_day if v >= 2), n),
        share_ge_5_per_day=safe_ratio(sum(1 for v in per_day if v >= 5), n),
        additions_per_user_day=(
            total_additions / effective_days / max(info.total_users, 1)
        ),
    )


@dataclass(frozen=True)
class DigestExamples:
    """Fig. 10's contrasted users, as the paper bands read them."""

    examples: Sequence[DigestSeries]

    @property
    def count(self) -> int:
        return len(self.examples)

    @property
    def mean_ratio(self) -> float:
        """Largest over smallest mean digest size (infinite when the
        smallest is 0 and the largest is not)."""
        means = [e.mean for e in self.examples] or [0.0]
        if min(means) == 0:
            return math.inf if max(means) else 0.0
        return max(means) / min(means)


def pick_digest_examples(
    store: LogStore, how_many: int = 3
) -> list[DigestSeries]:
    """Fig. 10: pick contrasted users — biggest mean digest, the median
    user, and the burstiest (largest peak/mean ratio)."""
    series = store.index().digests.per_user_series
    candidates = [
        DigestSeries(company_id=key[0], user=key[1], series=values)
        for key, values in series.items()
        if len(values) >= 3
    ]
    if not candidates:
        return []
    by_mean = sorted(candidates, key=lambda s: s.mean)
    picks = [by_mean[-1], by_mean[len(by_mean) // 2]]
    bursty = max(
        candidates, key=lambda s: safe_ratio(s.peak, max(s.mean, 1e-9))
    )
    picks.append(bursty)
    unique = []
    seen = set()
    for pick in picks:
        key = (pick.company_id, pick.user)
        if key not in seen:
            seen.add(key)
            unique.append(pick)
    return unique[:how_many]


def build_table(stats: ChurnStats) -> ComparisonTable:
    table = ComparisonTable("Fig. 9 / Sec. 4.3 — whitelist change rate")
    labels = [f"{low}-{high}" for low, high in FIG9_BINS] + [">600"]
    for label, paper, measured in zip(
        labels, FIG9_PAPER_SHARES, stats.bin_shares
    ):
        table.add(f"whitelists gaining {label} entries / 60d", paper, measured, "%")
    table.add(
        "whitelists with >=1 new entry/day", 6.8, 100.0 * stats.share_ge_1_per_day, "%"
    )
    table.add(
        "whitelists with >=2 new entries/day", 2.1, 100.0 * stats.share_ge_2_per_day, "%"
    )
    table.add(
        "whitelists with >=5 new entries/day", 0.2, 100.0 * stats.share_ge_5_per_day, "%"
    )
    table.add(
        "new whitelist entries per user per day",
        0.3,
        stats.additions_per_user_day,
    )
    return table


_SPARK_LEVELS = " .:-=+*#%@"


def render_sparkline(series: Mapping[int, int]) -> str:
    """Render a daily series as a fixed-alphabet sparkline.

    Missing days render as spaces; counts are scaled to the series peak.

    >>> render_sparkline({0: 0, 1: 5, 2: 10})
    '.=@'
    """
    if not series:
        return ""
    first, last = min(series), max(series)
    peak = max(series.values()) or 1
    chars = []
    for day in range(first, last + 1):
        if day not in series:
            chars.append(" ")
            continue
        level = round((len(_SPARK_LEVELS) - 1) * series[day] / peak)
        chars.append(_SPARK_LEVELS[level] if series[day] else ".")
    return "".join(chars)


def build_digest_table(examples: Sequence[DigestSeries]) -> TextTable:
    table = TextTable(
        headers=["user", "days", "mean digest", "peak digest", "daily series"],
        title="Fig. 10 — daily pending-digest sizes of contrasted users",
    )
    for example in examples:
        table.add_row(
            f"{example.user}",
            len(example.series),
            f"{example.mean:.1f}",
            example.peak,
            render_sparkline(example.series),
        )
    return table


def render(store: LogStore, info: DeploymentInfo) -> str:
    stats = compute(store, info)
    parts = [build_table(stats).render()]
    examples = pick_digest_examples(store)
    if examples:
        parts.append(build_digest_table(examples).render())
    return "\n\n".join(parts)
