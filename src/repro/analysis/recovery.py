"""Crash-and-recovery report: what the product survived and what it cost.

The CR product's operational claim — quarantine and whitelist state is
durable, no accepted message is ever lost — is exactly the property the
paper's operators depended on across four years of real deployment.
This report summarises one run's injected component crashes
(:mod:`repro.net.crashes`), how each recovery went (journal replays,
index rebuilds, deferred traffic), and the checkpoint/restore overhead of
the simulation harness itself.

Crash events are regular log records (the ``crashes`` table), so a
persisted run replays this report offline like any other; the injection
counters and checkpoint timings live in the
:class:`~repro.experiments.runner.RunRecord`'s metrics and are appended
when it has them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from repro.analysis.store import LogStore
from repro.util.render import TextTable
from repro.util.simtime import format_duration
from repro.util.stats import safe_ratio


@dataclass(frozen=True)
class ComponentCrashes:
    """Aggregate of one component's crashes over the run."""

    component: str
    count: int
    total_downtime: float
    redriven: int
    lost: int
    journal_failures: int

    @property
    def mean_downtime(self) -> float:
        return safe_ratio(self.total_downtime, self.count)


@dataclass(frozen=True)
class RecoveryBreakdown:
    """Per-component crash aggregates of one run."""

    components: tuple

    @property
    def total_crashes(self) -> int:
        return sum(c.count for c in self.components)

    @property
    def total_lost(self) -> int:
        return sum(c.lost for c in self.components)

    @property
    def zero_loss(self) -> bool:
        return self.total_lost == 0 and not any(
            c.journal_failures for c in self.components
        )


def compute(store: LogStore) -> RecoveryBreakdown:
    counts: Counter = Counter()
    downtime: Counter = Counter()
    redriven: Counter = Counter()
    lost: Counter = Counter()
    journal_failures: Counter = Counter()
    for record in store.crashes:
        counts[record.component] += 1
        downtime[record.component] += record.downtime
        redriven[record.component] += record.redriven
        lost[record.component] += record.lost
        if not record.journal_ok:
            journal_failures[record.component] += 1
    return RecoveryBreakdown(
        components=tuple(
            ComponentCrashes(
                component=component,
                count=counts[component],
                total_downtime=downtime[component],
                redriven=redriven[component],
                lost=lost[component],
                journal_failures=journal_failures[component],
            )
            for component in sorted(counts)
        )
    )


def build_crash_table(breakdown: RecoveryBreakdown) -> TextTable:
    table = TextTable(
        headers=[
            "component", "crashes", "mean downtime", "redriven", "lost",
            "journal failures",
        ],
        title="Injected component crashes",
    )
    for c in breakdown.components:
        table.add_row(
            c.component,
            c.count,
            format_duration(c.mean_downtime),
            c.redriven,
            c.lost,
            c.journal_failures,
        )
    return table


#: ``crashes.*`` metrics in report order, with their row labels.
_CRASH_COUNTERS = (
    ("component crashes", "crashes"),
    ("inbound deferred to recovery", "inbound_deferred"),
    ("inbound refused (past horizon)", "inbound_refused"),
    ("digest sweeps skipped", "digests_skipped"),
    ("expiry sweeps skipped", "expiries_skipped"),
    ("outbound attempts deferred", "outbound_deferred"),
    ("in-flight mail re-driven", "redriven"),
    ("gray-spool journals rebuilt", "journals_rebuilt"),
    ("journal rebuild mismatches", "journal_mismatches"),
    ("messages lost", "lost"),
)


def build_crash_counter_table(metrics: dict) -> TextTable:
    table = TextTable(
        headers=["counter", "value"],
        title="Crash-injection counters",
    )
    for label, name in _CRASH_COUNTERS:
        table.add_row(label, metrics[f"crashes.{name}"])
    clean = not (
        metrics["crashes.lost"] or metrics["crashes.journal_mismatches"]
    )
    table.add_row("recovery verdict", "ZERO LOSS" if clean else "LOSSY")
    return table


def build_checkpoint_table(
    metrics: dict, restored_from: Optional[str]
) -> TextTable:
    table = TextTable(
        headers=["metric", "value"],
        title="Checkpoint/restore overhead (simulation harness)",
    )
    written = metrics["checkpoint.written"]
    write_seconds = metrics["checkpoint.write_seconds"]
    table.add_row(
        "snapshot interval", format_duration(metrics["checkpoint.every"])
    )
    table.add_row("snapshots written", written)
    table.add_row("total write time", f"{write_seconds:.3f}s")
    table.add_row(
        "mean write time", f"{safe_ratio(write_seconds, written):.3f}s"
    )
    if restored_from is not None:
        table.add_row("restored from", restored_from)
        table.add_row(
            "restore time", f"{metrics['checkpoint.restore_seconds']:.3f}s"
        )
    return table


def render(
    store: LogStore,
    metrics: Optional[dict] = None,
    restored_from: Optional[str] = None,
) -> str:
    """Full crash-and-recovery report; the run's metrics map (empty or
    ``None`` for a loaded run) appends its injection counters and harness
    overhead."""
    breakdown = compute(store)
    parts = []
    if breakdown.components:
        parts.append(build_crash_table(breakdown).render())
        parts.append(
            f"{breakdown.total_crashes:,} crashes; "
            f"{breakdown.total_lost:,} messages lost; "
            + (
                "every recovery replayed its journals cleanly"
                if breakdown.zero_loss
                else "LOSS OBSERVED — durability model is lossy or recovery is broken"
            )
        )
    else:
        parts.append("no component crashes (crash injection off or quiet run)")
    if metrics and metrics["crashes.enabled"]:
        parts.append(build_crash_counter_table(metrics).render())
    if metrics and (metrics["checkpoint.written"] or restored_from):
        parts.append(build_checkpoint_table(metrics, restored_from).render())
    return "\n\n".join(parts)


def render_result(result) -> str:
    """Registry adapter: renders from a
    :class:`~repro.experiments.runner.RunRecord`; a loaded one has empty
    ``metrics`` and renders the store's crash records only."""
    return render(result.store, result.metrics, result.restored_from)
