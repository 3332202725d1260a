"""The lifecycle-audit report (experiment id ``audit``).

Renders the end-of-run verdict of the message-lifecycle ledger
(:mod:`repro.core.ledger`): the terminal-state mix of every accepted
message, per-company conservation verdicts, any stranded messages the
auditor caught, and a reconciliation of the ledger's counters against the
measurement store's own records (dispatch / release / expiry tables) — two
independently-maintained views of the same population that must agree.

Works in three modes, all from one
:class:`~repro.experiments.runner.RunRecord`:

* a simulated or cached run, whose metrics give ``ledger_stats`` — the
  full report;
* the same but from an audited run — adds the per-message stranded table
  (empty on a conserving run);
* a loaded run (empty metrics, so no ``ledger_stats``) — renders the
  store-side view only and says the runtime verdict is unavailable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.store import LogStore
from repro.util.render import TextTable
from repro.util.stats import safe_ratio


@dataclass(frozen=True)
class StoreCompanyFlow:
    """One company's message flow as the *measurement store* recorded it —
    the ledger's independently-derived cross-check."""

    company_id: str
    accepted: int
    white: int
    black: int
    filter_dropped: int
    quarantined: int
    released: int
    expired: int


def compute_store_flows(store: LogStore) -> list[StoreCompanyFlow]:
    """Per-company flows from the store's record tables, via the shared
    analysis index (one pass, cached)."""
    index = store.index()
    flows = []
    for company_id in sorted(index.mta.per_company):
        mta = index.mta.per_company[company_id]
        dispatch = index.dispatch.per_company.get(company_id)
        releases = index.releases.per_company.get(company_id, {})
        expiries = index.expiries.per_company.get(company_id, 0)
        filter_dropped = (
            sum(dispatch.filter_drops.values()) if dispatch else 0
        )
        flows.append(
            StoreCompanyFlow(
                company_id=company_id,
                accepted=mta.accepted,
                white=dispatch.white if dispatch else 0,
                black=dispatch.black if dispatch else 0,
                filter_dropped=filter_dropped,
                quarantined=(dispatch.gray - filter_dropped) if dispatch else 0,
                released=sum(releases.values()),
                expired=expiries,
            )
        )
    return flows


def build_mix_table(ledger_stats) -> TextTable:
    table = TextTable(
        headers=["terminal state", "messages", "% of accepted"],
        title="Terminal-state mix of accepted messages",
    )
    rows = [
        ("delivered (whitelisted sender)", ledger_stats.delivered),
        ("black-dropped", ledger_stats.black_dropped),
        ("filter-dropped", ledger_stats.filter_dropped),
        ("released from quarantine", ledger_stats.released),
        ("deleted from digest", ledger_stats.deleted),
        ("expired (30-day quarantine)", ledger_stats.expired),
        ("pending at horizon", ledger_stats.pending_at_horizon),
    ]
    for label, count in rows:
        share = 100.0 * safe_ratio(count, ledger_stats.accepted)
        table.add_row(label, count, f"{share:.2f}%")
    table.add_row("total", ledger_stats.terminal_total, "")
    table.add_row("accepted", ledger_stats.accepted, "")
    return table


def build_company_table(ledger_stats) -> TextTable:
    table = TextTable(
        headers=[
            "company",
            "accepted",
            "inbox",
            "black",
            "filter",
            "released",
            "deleted",
            "expired",
            "at-horizon",
            "verdict",
        ],
        title="Per-company conservation verdicts",
    )
    for snap in ledger_stats.per_company:
        table.add_row(
            snap.company_id,
            snap.accepted,
            snap.delivered,
            snap.black_dropped,
            snap.filter_dropped,
            snap.released,
            snap.deleted,
            snap.expired,
            snap.pending_at_horizon,
            "OK" if snap.conserved else "VIOLATED",
        )
    return table


def build_stranded_table(ledger_stats) -> Optional[TextTable]:
    """Audit-mode per-message strandings; None when there are none (or the
    run was not audited, in which case per-message state is unknown)."""
    stranded = [
        (snap.company_id, msg_id, state)
        for snap in ledger_stats.per_company
        for msg_id, state in snap.stranded
    ]
    if not stranded:
        return None
    table = TextTable(
        headers=["company", "msg_id", "stuck in state"],
        title="Stranded messages (no terminal disposition)",
    )
    for company_id, msg_id, state in stranded[:50]:
        table.add_row(company_id, msg_id, state)
    if len(stranded) > 50:
        table.add_row("...", f"+{len(stranded) - 50} more", "")
    return table


def build_reconciliation_table(store: LogStore, ledger_stats) -> TextTable:
    """Fleet-wide ledger counters vs. what the store's record tables imply.

    ``deleted`` and ``pending at horizon`` have no log records by design
    (digest deletes are silent; the drain happens outside the horizon), so
    the store side for those is the residual of the quarantine balance.
    """
    flows = compute_store_flows(store)
    store_accepted = sum(f.accepted for f in flows)
    store_white = sum(f.white for f in flows)
    store_black = sum(f.black for f in flows)
    store_filter = sum(f.filter_dropped for f in flows)
    store_quarantined = sum(f.quarantined for f in flows)
    store_released = sum(f.released for f in flows)
    store_expired = sum(f.expired for f in flows)
    table = TextTable(
        headers=["stage", "ledger", "store records", "agree"],
        title="Ledger vs. measurement store",
    )
    pairs = [
        ("accepted", ledger_stats.accepted, store_accepted),
        ("delivered (white)", ledger_stats.delivered, store_white),
        ("black-dropped", ledger_stats.black_dropped, store_black),
        ("filter-dropped", ledger_stats.filter_dropped, store_filter),
        ("quarantined", ledger_stats.quarantined_total, store_quarantined),
        ("released", ledger_stats.released, store_released),
        ("expired", ledger_stats.expired, store_expired),
    ]
    for label, ledger_value, store_value in pairs:
        table.add_row(
            label,
            ledger_value,
            store_value,
            "yes" if ledger_value == store_value else "NO",
        )
    residual = store_quarantined - store_released - store_expired
    table.add_row(
        "deleted + at-horizon",
        ledger_stats.deleted + ledger_stats.pending_at_horizon,
        f"{residual} (residual; not logged)",
        "yes"
        if ledger_stats.deleted + ledger_stats.pending_at_horizon == residual
        else "NO",
    )
    return table


def _build_store_only_table(store: LogStore) -> TextTable:
    flows = compute_store_flows(store)
    table = TextTable(
        headers=[
            "company",
            "accepted",
            "inbox",
            "black",
            "filter",
            "quarantined",
            "released",
            "expired",
        ],
        title="Per-company message flow (store records)",
    )
    for flow in flows:
        table.add_row(
            flow.company_id,
            flow.accepted,
            flow.white,
            flow.black,
            flow.filter_dropped,
            flow.quarantined,
            flow.released,
            flow.expired,
        )
    return table


def render(store: LogStore, ledger_stats=None) -> str:
    """Full lifecycle-audit report; *ledger_stats* (optional) is the run's
    :class:`~repro.experiments.runner.LedgerStats`."""
    if ledger_stats is None:
        parts = [_build_store_only_table(store).render()]
        parts.append(
            "runtime ledger verdict unavailable (loaded run) — per-company "
            "flows above come from the store's own records; deleted and "
            "at-horizon messages leave no records and appear as the "
            "quarantine residual"
        )
        return "\n\n".join(parts)

    parts = [build_mix_table(ledger_stats).render()]
    mode = "continuous audit" if ledger_stats.audit else "end-of-run check"
    verdict = "CONSERVED" if ledger_stats.conserved else "VIOLATED"
    parts.append(
        f"lifecycle conservation: {verdict} ({mode}) — "
        f"{ledger_stats.accepted:,} accepted, "
        f"{ledger_stats.terminal_total:,} in terminal states, "
        f"{ledger_stats.stranded} stranded, "
        f"{ledger_stats.leaked_challenge_slots} leaked challenge slot(s)"
    )
    parts.append(build_company_table(ledger_stats).render())
    stranded_table = build_stranded_table(ledger_stats)
    if stranded_table is not None:
        parts.append(stranded_table.render())
    parts.append(build_reconciliation_table(store, ledger_stats).render())
    return "\n\n".join(parts)


def render_result(result) -> str:
    """Registry adapter: renders from a
    :class:`~repro.experiments.runner.RunRecord`; a loaded one has no
    ``ledger_stats`` and renders the store-only mode."""
    return render(result.store, result.ledger_stats)
