"""Machine-checked pass/fail verdicts for attack scenarios.

A scenario's YAML declares assertions about the finished run ("the
CAPTCHA farm released at least N spam messages", "the victim's challenge
server spent at least D days blacklisted"); this module computes each
metric from the measurement store's ledger-grade aggregates and renders
the verdict table. Registered as experiment id ``verdicts``.

Metrics operate purely on the (merged, possibly loaded-from-disk) record
lists, never on live installations, so verdicts evaluate identically for
plain, sharded, cached, and persisted runs; a dotted name reads a run
counter instead (:func:`resolve_metric`). A check *evaluates* (pass or
fail) even when its metric trips or is unknown: errors are captured per
check, never raised, so one bad check cannot take down ``repro check``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

from repro.analysis.store import LogStore
from repro.core.spools import Category, ReleaseMechanism
from repro.net.smtp import FinalStatus
from repro.util.metrics import GROUPS
from repro.util.simtime import DAY

OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


@dataclass(frozen=True)
class CheckResult:
    """One verdict check, evaluated."""

    name: str
    metric: str
    op: str
    value: float
    observed: float
    passed: bool
    #: Metric computation failure, if any (the check then counts as
    #: failed but the evaluation itself never raises).
    error: Optional[str] = None


@dataclass(frozen=True)
class ScenarioVerdict:
    """All of one scenario's checks, evaluated against one run."""

    scenario: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


# -- record selection --------------------------------------------------------


def _dispatch_records(store: LogStore, check) -> list:
    """The scoped attack dispatch records: by campaign when the check
    names one, else every ``attack-*`` campaign; optionally by company."""
    records = []
    for record in store.dispatch:
        campaign = record.campaign_id or ""
        if check.campaign is not None:
            if campaign != check.campaign:
                continue
        elif not campaign.startswith("attack-"):
            continue
        if check.company_id is not None and record.company_id != check.company_id:
            continue
        records.append(record)
    return records


def _released_msg_ids(store: LogStore, mechanism=None) -> set:
    return {
        record.msg_id
        for record in store.releases
        if mechanism is None or record.mechanism is mechanism
    }


def _challenge_ids(store: LogStore, check) -> set:
    return {
        record.challenge_id
        for record in _dispatch_records(store, check)
        if record.challenge_created and record.challenge_id is not None
    }


def _listed_days(store: LogStore, ips: set) -> float:
    days = set()
    for probe in store.probes:
        if probe.listed and probe.ip in ips:
            days.add((probe.ip, int(probe.t // DAY)))
    return float(len(days))


# -- metrics -----------------------------------------------------------------


def _m_messages(result, check) -> float:
    return float(len(_dispatch_records(result.store, check)))


def _m_challenges(result, check) -> float:
    records = _dispatch_records(result.store, check)
    return float(sum(1 for r in records if r.challenge_created))


def _m_inbox(result, check) -> float:
    records = _dispatch_records(result.store, check)
    return float(sum(1 for r in records if r.category is Category.WHITE))


def _m_inbox_rate(result, check) -> float:
    records = _dispatch_records(result.store, check)
    if not records:
        return 0.0
    inbox = sum(1 for r in records if r.category is Category.WHITE)
    return inbox / len(records)


def _m_quarantined(result, check) -> float:
    records = _dispatch_records(result.store, check)
    return float(
        sum(
            1
            for r in records
            if r.category is Category.GRAY and r.filter_drop is None
        )
    )


def _m_filtered(result, check) -> float:
    records = _dispatch_records(result.store, check)
    return float(sum(1 for r in records if r.filter_drop is not None))


def _m_released(result, check) -> float:
    released = _released_msg_ids(result.store)
    records = _dispatch_records(result.store, check)
    return float(sum(1 for r in records if r.msg_id in released))


def _m_captcha_released(result, check) -> float:
    released = _released_msg_ids(result.store, ReleaseMechanism.CAPTCHA)
    records = _dispatch_records(result.store, check)
    return float(sum(1 for r in records if r.msg_id in released))


def _m_release_rate(result, check) -> float:
    quarantined = _m_quarantined(result, check)
    if not quarantined:
        return 0.0
    return _m_released(result, check) / quarantined


def _m_challenge_bounced(result, check) -> float:
    # Distinct challenges, not outcome records: a challenge retried
    # across several MX attempts logs one outcome per attempt.
    ids = _challenge_ids(result.store, check)
    bounced = {
        outcome.challenge_id
        for outcome in result.store.challenge_outcomes
        if outcome.challenge_id in ids
        and outcome.status is FinalStatus.BOUNCED
    }
    return float(len(bounced))


def _m_challenge_bounce_rate(result, check) -> float:
    ids = _challenge_ids(result.store, check)
    if not ids:
        return 0.0
    return _m_challenge_bounced(result, check) / len(ids)


def _m_victim_listed_days(result, check) -> float:
    """Blacklisted IP-days of the scoped company's challenge servers
    (every company when the check names none)."""
    store = result.store
    ips = {
        record.server_ip
        for record in store.challenges
        if check.company_id is None or record.company_id == check.company_id
    }
    return _listed_days(store, ips)


#: metric name (as written in scenario YAML) -> function(result, check).
METRICS = {
    "attack_messages": _m_messages,
    "attack_challenges": _m_challenges,
    "attack_inbox": _m_inbox,
    "attack_inbox_rate": _m_inbox_rate,
    "attack_quarantined": _m_quarantined,
    "attack_filtered": _m_filtered,
    "attack_released": _m_released,
    "attack_captcha_released": _m_captcha_released,
    "attack_release_rate": _m_release_rate,
    "attack_challenge_bounced": _m_challenge_bounced,
    "attack_challenge_bounce_rate": _m_challenge_bounce_rate,
    "victim_listed_days": _m_victim_listed_days,
}


#: Groups of ``result.metrics`` whose read-only view adds derived
#: properties (``faults.conserved``, ``ledger.terminal_total``).
_VIEWS = {
    "cache": "cache_stats",
    "faults": "fault_stats",
    "ledger": "ledger_stats",
}

#: The groups a dotted verdict name may read: the run's metrics map,
#: a sharded run's ``shard.*`` costs, the store's ``store.<table>`` rows.
METRIC_GROUPS = frozenset(GROUPS) | {"shard", "store"}


def resolve_metric(result, name: str) -> float:
    """The dotted *name*'s value for *result*, looked up in order in
    ``result.metrics``, the views' derived properties, a sharded run's
    ``shard.*`` costs and the store's row counts; ``KeyError`` when no
    source has it (an unknown name never reads as 0)."""
    group, _, rest = name.partition(".")
    if name in result.metrics:
        return float(result.metrics[name])
    if group in _VIEWS:
        view = getattr(result, _VIEWS[group])
        if isinstance(getattr(type(view), rest, None), property):
            return float(getattr(view, rest))
    if group == "shard" and result.shard_stats is not None:
        shard = result.shard_stats.metrics()
        if name in shard:
            return float(shard[name])
    if group == "store":
        counts = result.store.summary_counts()
        if rest in counts:
            return float(counts[rest])
    raise KeyError(f"no metric {name!r} in this run")


def _observe(result, name: str, check) -> float:
    if "." in name:
        return resolve_metric(result, name)
    return float(METRICS[name](result, check))


def evaluate(result, spec) -> ScenarioVerdict:
    """Evaluate every check of *spec* against *result*; never raises."""
    checks = []
    for check in spec.verdicts:
        value = check.value
        try:
            observed = _observe(result, check.metric, check)
            if isinstance(value, str):
                value = _observe(result, value, check)
            passed = bool(OPS[check.op](observed, value))
            error = None
        except Exception as exc:
            observed = float("nan")
            if isinstance(value, str):
                value = float("nan")
            passed = False
            error = f"{type(exc).__name__}: {exc}"
        checks.append(
            CheckResult(
                name=check.name,
                metric=check.metric,
                op=check.op,
                value=value,
                observed=observed,
                passed=passed,
                error=error,
            )
        )
    return ScenarioVerdict(scenario=spec.name, checks=tuple(checks))


# -- rendering ---------------------------------------------------------------


def render(verdict: ScenarioVerdict, description: str = "") -> str:
    lines = [f"Scenario verdict — {verdict.scenario}"]
    if description:
        lines.append(f"  {description}")
    lines.append("")
    lines.append(
        f"  {'check':<28} {'metric':<28} {'observed':>10}  "
        f"{'expected':<12} verdict"
    )
    for check in verdict.checks:
        expected = f"{check.op} {check.value:g}"
        status = "PASS" if check.passed else "FAIL"
        lines.append(
            f"  {check.name:<28} {check.metric:<28} "
            f"{check.observed:>10.2f}  {expected:<12} {status}"
        )
        if check.error:
            lines.append(f"    error: {check.error}")
    n_passed = sum(1 for check in verdict.checks if check.passed)
    overall = "PASS" if verdict.passed else "FAIL"
    lines.append("")
    lines.append(
        f"VERDICT: {overall} ({n_passed}/{len(verdict.checks)} checks)"
    )
    return "\n".join(lines)


def render_result(result) -> str:
    """Experiment-registry adapter: verdict table for a scenario run, a
    fixed notice otherwise (so scenario-free reports stay byte-stable)."""
    spec = getattr(result, "scenario", None)
    if spec is None:
        return (
            "Scenario verdicts\n"
            "  no scenario attached to this run; run with "
            "--scenario <name> (see `repro scenarios` for the pack)"
        )
    if not spec.verdicts:
        return (
            f"Scenario verdict — {spec.name}\n"
            "  scenario declares no verdict checks"
        )
    return render(evaluate(result, spec), spec.description)
