"""Challenge delivery under network weather: the fault-condition breakdown.

The paper's §4 delay tail and Fig. 4(a)'s "expired after many unsuccessful
attempts" both emerge from *retries* — challenges that hit greylisting,
storms, outages, or DNS trouble on their first attempt and succeed (or give
up) hours later. This module splits the challenge population by fault
condition:

* **clean** — delivered/rejected on the first attempt (no weather);
* **weathered** — at least one transient failure before the terminal
  status.

and reports, for each side, the terminal-status mix, the attempts
histogram, and the send→terminal delay CDF. With faults disabled the
weathered side is empty and the report says so — the module renders
meaningfully for any run.

All inputs come from the shared :class:`~repro.analysis.index.AnalysisIndex`
(the challenge send-time pass joined against the outcome pass); fault-plan
counters, which live outside the measurement store, are appended only when
the caller passes the run's
:class:`~repro.experiments.runner.FaultStats`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.delays import CDF_PROBES
from repro.analysis.store import LogStore
from repro.net.smtp import FinalStatus
from repro.util.render import TextTable
from repro.util.simtime import format_duration
from repro.util.stats import CdfPoint, cdf_at, empirical_cdf, safe_ratio


@dataclass(frozen=True)
class ConditionStats:
    """Terminal-status mix of one fault condition (clean or weathered)."""

    delivered: int = 0
    bounced: int = 0
    expired: int = 0

    @property
    def total(self) -> int:
        return self.delivered + self.bounced + self.expired

    @property
    def expired_share(self) -> float:
        return safe_ratio(self.expired, self.total)


@dataclass(frozen=True)
class FaultBreakdown:
    """Challenge outcomes split by fault condition."""

    clean: ConditionStats
    weathered: ConditionStats
    #: Send→terminal delay CDFs of *delivered* challenges.
    clean_delay_cdf: Sequence[CdfPoint]
    weathered_delay_cdf: Sequence[CdfPoint]
    #: attempts -> challenges that needed exactly that many.
    attempts_hist: Counter

    @property
    def total(self) -> int:
        return self.clean.total + self.weathered.total

    @property
    def weathered_share(self) -> float:
        return safe_ratio(self.weathered.total, self.total)

    @property
    def retries_total(self) -> int:
        """Extra delivery attempts beyond the first, summed."""
        return sum(
            (attempts - 1) * count
            for attempts, count in self.attempts_hist.items()
        )


def compute(store: LogStore) -> FaultBreakdown:
    index = store.index()
    send_times = index.challenges.send_times
    clean = {FinalStatus.DELIVERED: 0, FinalStatus.BOUNCED: 0, FinalStatus.EXPIRED: 0}
    weathered = dict(clean)
    clean_delays: list = []
    weathered_delays: list = []
    attempts_hist: Counter = Counter()
    for key, outcome in index.outcomes.by_challenge.items():
        attempts_hist[outcome.attempts] += 1
        bucket = clean if outcome.attempts == 1 else weathered
        bucket[outcome.status] += 1
        if outcome.status is FinalStatus.DELIVERED:
            sent_at = send_times.get(key)
            if sent_at is not None:
                delay = outcome.t_final - sent_at
                (clean_delays if outcome.attempts == 1 else weathered_delays).append(
                    delay
                )
    return FaultBreakdown(
        clean=ConditionStats(
            delivered=clean[FinalStatus.DELIVERED],
            bounced=clean[FinalStatus.BOUNCED],
            expired=clean[FinalStatus.EXPIRED],
        ),
        weathered=ConditionStats(
            delivered=weathered[FinalStatus.DELIVERED],
            bounced=weathered[FinalStatus.BOUNCED],
            expired=weathered[FinalStatus.EXPIRED],
        ),
        clean_delay_cdf=empirical_cdf(clean_delays) if clean_delays else (),
        weathered_delay_cdf=(
            empirical_cdf(weathered_delays) if weathered_delays else ()
        ),
        attempts_hist=attempts_hist,
    )


def build_condition_table(breakdown: FaultBreakdown) -> TextTable:
    table = TextTable(
        headers=["condition", "total", "delivered", "bounced", "expired", "expired %"],
        title="Challenge outcomes by fault condition",
    )
    for label, stats in (
        ("clean (1 attempt)", breakdown.clean),
        ("weathered (retried)", breakdown.weathered),
    ):
        table.add_row(
            label,
            stats.total,
            stats.delivered,
            stats.bounced,
            stats.expired,
            f"{100.0 * stats.expired_share:.2f}%",
        )
    return table


def build_attempts_table(breakdown: FaultBreakdown) -> TextTable:
    table = TextTable(
        headers=["attempts", "challenges"],
        title="Delivery attempts per challenge",
    )
    for attempts in sorted(breakdown.attempts_hist):
        table.add_row(attempts, breakdown.attempts_hist[attempts])
    return table


def _render_delay_cdf(points: Sequence[CdfPoint], title: str) -> str:
    lines = [title]
    for probe in CDF_PROBES:
        lines.append(
            f"  <= {format_duration(probe):>8}: {100.0 * cdf_at(points, probe):6.2f}%"
        )
    return "\n".join(lines)


def build_fault_counter_table(fault_stats) -> TextTable:
    table = TextTable(
        headers=["counter", "value"],
        title="Fault-injection counters (network weather)",
    )
    table.add_row("greylist deferrals", fault_stats.greylist_deferrals)
    table.add_row("4xx storm rejections", fault_stats.storm_rejections)
    table.add_row("outage connection failures", fault_stats.outage_failures)
    table.add_row("DNS SERVFAILs", fault_stats.dns_failures)
    table.add_row("retries scheduled", fault_stats.retries_scheduled)
    table.add_row("messages sent", fault_stats.messages_sent)
    table.add_row("  delivered", fault_stats.delivered)
    table.add_row("  bounced", fault_stats.bounced)
    table.add_row("  expired", fault_stats.expired)
    table.add_row("force-drained at horizon", fault_stats.drained)
    table.add_row(
        "delivery conservation", "OK" if fault_stats.conserved else "VIOLATED"
    )
    return table


def render(store: LogStore, fault_stats=None) -> str:
    """Full fault-condition report; *fault_stats* (optional) appends the
    run's injection counters and the conservation verdict."""
    breakdown = compute(store)
    parts = [build_condition_table(breakdown).render()]
    parts.append(
        f"weathered share: {100.0 * breakdown.weathered_share:.2f}% of "
        f"{breakdown.total:,} challenges; "
        f"{breakdown.retries_total:,} retries observed"
    )
    parts.append(build_attempts_table(breakdown).render())
    if breakdown.clean_delay_cdf:
        parts.append(
            _render_delay_cdf(
                breakdown.clean_delay_cdf,
                "CDF of send->delivered delay (clean, 1 attempt)",
            )
        )
    if breakdown.weathered_delay_cdf:
        parts.append(
            _render_delay_cdf(
                breakdown.weathered_delay_cdf,
                "CDF of send->delivered delay (weathered, retried)",
            )
        )
    else:
        parts.append(
            "no weathered deliveries (faults disabled or no transient failures)"
        )
    if fault_stats is not None and fault_stats.enabled:
        parts.append(build_fault_counter_table(fault_stats).render())
    return "\n\n".join(parts)


def render_result(result) -> str:
    """Registry adapter: renders from a
    :class:`~repro.experiments.runner.RunRecord`; a loaded one has no
    ``fault_stats`` and renders the store's view only."""
    return render(result.store, result.fault_stats)
