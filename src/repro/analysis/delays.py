"""Figures 7/8 and §4.2: delivery delay of quarantined messages.

Paper anchors:

* Fig. 7 (CDF of gray→inbox delay): 30 % of released messages are delayed
  less than 5 minutes and half less than 30 minutes (CAPTCHA curve);
  digest releases take 4 hours to 3 days;
* Fig. 8: a challenge not solved within ~4 hours will likely never be;
* §4.2: 94 % of inbox mail is delivered instantly (whitelisted), ~6 % is
  quarantined first, and only ~0.6 % of inbox mail is delayed by more than
  one day.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.store import LogStore
from repro.util.render import ComparisonTable
from repro.util.simtime import DAY, HOUR, MINUTE, format_duration
from repro.util.stats import CdfPoint, cdf_at, empirical_cdf, safe_ratio

#: Delay probes used when rendering the CDFs.
CDF_PROBES = (
    1 * MINUTE,
    5 * MINUTE,
    30 * MINUTE,
    1 * HOUR,
    4 * HOUR,
    12 * HOUR,
    1 * DAY,
    3 * DAY,
)


@dataclass(frozen=True)
class DelayStats:
    captcha_delays: Sequence[float]
    digest_delays: Sequence[float]
    captcha_cdf: Sequence[CdfPoint]
    digest_cdf: Sequence[CdfPoint]
    combined_cdf: Sequence[CdfPoint]
    white_count: int
    released_count: int

    @property
    def inbox_count(self) -> int:
        return self.white_count + self.released_count

    @property
    def instant_share(self) -> float:
        """Share of inbox mail delivered instantly (paper: 94 %)."""
        return safe_ratio(self.white_count, self.inbox_count)

    @property
    def quarantined_share(self) -> float:
        return safe_ratio(self.released_count, self.inbox_count)

    @property
    def released_under_30min_share(self) -> float:
        """Of released mail, the share delivered in <30 min (paper: ~50 %)."""
        return cdf_at(self.combined_cdf, 30 * MINUTE)

    @property
    def inbox_delayed_over_1day_share(self) -> float:
        """Share of *inbox* mail delayed >1 day (paper: ~0.6 %)."""
        if not self.combined_cdf:
            return 0.0
        over_1d = 1.0 - cdf_at(self.combined_cdf, 1 * DAY)
        return self.quarantined_share * over_1d

    @property
    def captcha_cdf_at(self) -> dict:
        """Captcha releases' CDF at each :data:`CDF_PROBES` delay, keyed
        by its label (``"5m"``, ``"4h"``, ``"3d"``)."""
        return _at_probes(self.captcha_cdf)

    @property
    def digest_cdf_at(self) -> dict:
        return _at_probes(self.digest_cdf)


def _at_probes(points: Sequence[CdfPoint]) -> dict:
    return {format_duration(p): cdf_at(points, p) for p in CDF_PROBES}


def compute(store: LogStore) -> DelayStats:
    index = store.index()
    captcha_delays = list(index.releases.captcha_delays)
    digest_delays = list(index.releases.other_delays)
    white_count = index.dispatch.white
    all_delays = captcha_delays + digest_delays
    return DelayStats(
        captcha_delays=captcha_delays,
        digest_delays=digest_delays,
        captcha_cdf=empirical_cdf(captcha_delays) if captcha_delays else (),
        digest_cdf=empirical_cdf(digest_delays) if digest_delays else (),
        combined_cdf=empirical_cdf(all_delays) if all_delays else (),
        white_count=white_count,
        released_count=len(all_delays),
    )


def build_table(stats: DelayStats) -> ComparisonTable:
    table = ComparisonTable("Fig. 7/8 + Sec. 4.2 — delivery delay of inbox mail")
    captcha = stats.captcha_cdf_at
    table.add(
        "released in < 5 min (captcha releases)",
        30.0,
        100.0 * captcha["5m"],
        "%",
    )
    table.add(
        "released in < 30 min (captcha releases)",
        50.0,
        100.0 * captcha["30m"],
        "%",
    )
    table.add(
        "captcha releases within 4 h",
        None,
        100.0 * captcha["4h"],
        "%",
    )
    if stats.digest_delays:
        digest = stats.digest_cdf_at
        table.add(
            "digest releases between 4 h and 3 d",
            None,
            100.0 * (digest["3d"] - digest["4h"]),
            "%",
        )
    table.add("inbox mail delivered instantly", 94.0, 100.0 * stats.instant_share, "%")
    table.add("inbox mail quarantined first", 6.0, 100.0 * stats.quarantined_share, "%")
    table.add(
        "inbox mail delayed > 1 day",
        0.6,
        100.0 * stats.inbox_delayed_over_1day_share,
        "%",
    )
    return table


def _render_delay_cdf(points: Sequence[CdfPoint], title: str) -> str:
    lines = [title]
    for label, share in _at_probes(points).items():
        lines.append(f"  <= {label:>8}: {100.0 * share:6.2f}%")
    return "\n".join(lines)


def render(store: LogStore) -> str:
    stats = compute(store)
    parts = [build_table(stats).render()]
    if stats.captcha_cdf:
        parts.append(
            _render_delay_cdf(
                stats.captcha_cdf, "Fig. 7 — CDF of captcha-release delay"
            )
        )
    if stats.digest_cdf:
        parts.append(
            _render_delay_cdf(
                stats.digest_cdf, "Fig. 7 — CDF of digest-release delay"
            )
        )
    return "\n\n".join(parts)
