"""Experiment registry: maps every paper table/figure id to its analysis.

The ids follow DESIGN.md's per-experiment index. Each renderer takes a
:class:`~repro.experiments.runner.RunRecord` — simulated, cached or
loaded — and returns the rendered paper-vs-measured report for that
artifact.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.analysis import (
    blacklisting,
    challenges,
    churn,
    clustering,
    delays,
    discussion,
    engine_breakdown,
    faults,
    flow,
    frontier,
    general_stats,
    ledger,
    mta_breakdown,
    recovery,
    reflection,
    spf_study,
    timeseries,
    variability,
    verdicts,
)
from repro.experiments.runner import RunRecord

#: experiment id -> function(RunRecord) -> str (rendered report)
EXPERIMENTS: Dict[str, Callable[[RunRecord], str]] = {
    "fig1": lambda r: flow.render(r.store),
    "tab_drop": lambda r: mta_breakdown.render(r.store),
    "fig2": lambda r: mta_breakdown.render(r.store),
    "fig3": lambda r: engine_breakdown.render(r.store),
    "tab1": lambda r: general_stats.render(r.store, r.info),
    "tab1_daily": lambda r: timeseries.render(r.store, r.info),
    "fig4a": lambda r: challenges.render(r.store),
    "fig4b": lambda r: challenges.render(r.store),
    "sec31": lambda r: reflection.render(r.store),
    "sec32": lambda r: reflection.render(r.store),
    "sec33": lambda r: reflection.render(r.store),
    "fig5": lambda r: variability.render(r.store, r.info),
    "fig6": lambda r: clustering.render(r.store, r.info),
    "sec41": lambda r: clustering.render(r.store, r.info),
    "fig7": lambda r: delays.render(r.store),
    "fig8": lambda r: delays.render(r.store),
    "sec42": lambda r: delays.render(r.store),
    "fig9": lambda r: churn.render(r.store, r.info),
    "sec43": lambda r: churn.render(r.store, r.info),
    "fig10": lambda r: churn.render(r.store, r.info),
    "fig11": lambda r: blacklisting.render(r.store, r.info),
    "sec51": lambda r: blacklisting.render(r.store, r.info),
    "fig12": lambda r: spf_study.render(r.store),
    "sec6": lambda r: discussion.render(r.store, r.info),
    # Takes the full record (not just the store): the fault-injection
    # counters live on RunRecord.fault_stats, outside the log store.
    "faults": lambda r: faults.render_result(r),
    # Same shape: the lifecycle verdict lives on result.ledger_stats.
    "audit": lambda r: ledger.render_result(r),
    # Same shape again: crash counters and checkpoint overhead live in
    # result.metrics.
    "recovery": lambda r: recovery.render_result(r),
    # Scenario pass/fail verdicts evaluate result.scenario's declared
    # checks against the store (a fixed notice for scenario-free runs).
    "verdicts": lambda r: verdicts.render_result(r),
    # The FP/FN frontier is a cross-run sweep (chains x scenarios x
    # seeds); it re-simulates through the result cache rather than
    # analysing the passed run. Not in CANONICAL_ORDER for that reason.
    "frontier": lambda r: frontier.render_result(r),
}


def run_experiment(exp_id: str, result: RunRecord) -> str:
    """Render one experiment's paper-vs-measured report."""
    try:
        renderer = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    return renderer(result)


#: One id per distinct report (several ids share a renderer — e.g. fig4a
#: and fig4b are one combined report).
CANONICAL_ORDER = (
    "tab_drop",
    "fig1",
    "fig3",
    "tab1",
    "tab1_daily",
    "fig4a",
    "sec31",
    "fig5",
    "fig6",
    "fig7",
    "fig9",
    "fig11",
    "fig12",
    "sec6",
    "faults",
    "audit",
    "recovery",
    "verdicts",
)


def run_all(result: RunRecord) -> str:
    """Render every distinct experiment report once, in paper order."""
    parts = []
    for exp_id in CANONICAL_ORDER:
        parts.append(f"=== {exp_id} ===\n{EXPERIMENTS[exp_id](result)}")
    return "\n\n".join(parts)
