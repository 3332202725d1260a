"""Figure 5: per-company variability and cross-correlations.

The paper's scatter matrix relates five per-company variables — protected
users, daily email volume, white-spool share, reflection ratio, and solved-
challenge share — and observes that:

* the reflection ratio is *not* correlated with company size or volume,
  staying within roughly 10–25 %;
* the solved-challenge share is nearly constant (2–12 %) and positively
  correlated with the white share;
* reflection and white share are mildly anti-correlated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.context import DeploymentInfo
from repro.analysis.store import LogStore
from repro.util.render import TextTable
from repro.util.stats import median, pearson, safe_ratio

VARIABLES = ("users", "emails", "white", "reflection", "captcha")


@dataclass(frozen=True)
class CompanyPoint:
    """One company's coordinates in the Fig. 5 scatter matrix."""

    company_id: str
    users: float
    emails_per_day: float
    white_share: float
    reflection: float
    captcha_share: float

    def coordinate(self, variable: str) -> float:
        return {
            "users": self.users,
            "emails": self.emails_per_day,
            "white": self.white_share,
            "reflection": self.reflection,
            "captcha": self.captcha_share,
        }[variable]


@dataclass(frozen=True)
class VariabilityStats:
    points: Sequence[CompanyPoint]
    #: (var_a, var_b) -> Pearson r, for the lower triangle.
    correlations: Mapping[tuple, float]

    def correlation(self, a: str, b: str) -> float:
        if (a, b) in self.correlations:
            return self.correlations[(a, b)]
        return self.correlations[(b, a)]

    @property
    def companies(self) -> int:
        return len(self.points)

    @property
    def reflection_min(self) -> float:
        return min(p.reflection for p in self.points)

    @property
    def reflection_median(self) -> float:
        return median([p.reflection for p in self.points])

    @property
    def reflection_max(self) -> float:
        return max(p.reflection for p in self.points)

    @property
    def white_share_spread(self) -> float:
        whites = [p.white_share for p in self.points]
        return max(whites) - min(whites)


def compute(store: LogStore, info: DeploymentInfo) -> VariabilityStats:
    index = store.index()
    mta_per_company = index.mta.per_company
    dispatch_per_company = index.dispatch.per_company
    solved_counts = index.web.solves_per_company

    points = []
    for company_id in sorted(mta_per_company):
        dispatch = dispatch_per_company.get(company_id)
        dispatched = dispatch.total if dispatch is not None else 0
        whites = dispatch.white if dispatch is not None else 0
        challenges = (
            dispatch.challenges_created if dispatch is not None else 0
        )
        points.append(
            CompanyPoint(
                company_id=company_id,
                users=float(info.users_per_company.get(company_id, 0)),
                emails_per_day=(
                    mta_per_company[company_id].total / info.horizon_days
                ),
                white_share=safe_ratio(whites, dispatched),
                reflection=safe_ratio(challenges, dispatched),
                captcha_share=safe_ratio(
                    solved_counts.get(company_id, 0), challenges
                ),
            )
        )

    correlations = {}
    for i, a in enumerate(VARIABLES):
        for b in VARIABLES[i + 1 :]:
            xs = [p.coordinate(a) for p in points]
            ys = [p.coordinate(b) for p in points]
            correlations[(a, b)] = pearson(xs, ys) if len(points) >= 2 else 0.0
    return VariabilityStats(points=points, correlations=correlations)


#: Qualitative expectations from the paper's Fig. 5 (signs and magnitudes).
PAPER_EXPECTATIONS = [
    ("users", "reflection", "no correlation (|r| small)"),
    ("emails", "reflection", "no correlation (|r| small)"),
    ("white", "reflection", "small inverse correlation"),
    ("white", "captcha", "strong positive correlation"),
]


def build_correlation_table(stats: VariabilityStats) -> TextTable:
    table = TextTable(
        headers=[""] + list(VARIABLES),
        title="Fig. 5 — Pearson correlations between per-company variables",
    )
    for a in VARIABLES:
        row = [a]
        for b in VARIABLES:
            if a == b:
                row.append("1.00")
            else:
                row.append(f"{stats.correlation(a, b):+.2f}")
        table.add_row(*row)
    return table


def build_range_table(stats: VariabilityStats) -> TextTable:
    table = TextTable(
        headers=["variable", "min", "median", "max", "paper range"],
        title="Fig. 5 — per-company variable ranges",
    )
    paper_ranges = {
        "users": "mostly <500, few >2000",
        "emails": "wide spread",
        "white": "10% .. >70%",
        "reflection": "10% .. 25%",
        "captcha": "2% .. 12%",
    }
    for variable in VARIABLES:
        values = [p.coordinate(variable) for p in stats.points]
        if not values:
            continue
        fmt = (lambda v: f"{v:,.0f}") if variable in ("users", "emails") else (
            lambda v: f"{100.0 * v:.1f}%"
        )
        table.add_row(
            variable,
            fmt(min(values)),
            fmt(median(values)),
            fmt(max(values)),
            paper_ranges[variable],
        )
    return table


def render(store: LogStore, info: DeploymentInfo) -> str:
    stats = compute(store, info)
    parts = [
        build_correlation_table(stats).render(),
        build_range_table(stats).render(),
        "Paper's qualitative findings:",
    ]
    for a, b, expectation in PAPER_EXPECTATIONS:
        parts.append(
            f"  corr({a}, {b}) = {stats.correlation(a, b):+.2f}   [{expectation}]"
        )
    return "\n\n".join(parts[:2]) + "\n\n" + "\n".join(parts[2:])


# ----------------------------------------------------------------------
# Multi-seed sweep: how stable are the Fig. 5 correlations run-to-run?
# The paper observes one deployment; re-simulating across seeds shows
# which of its qualitative findings are robust properties of the system
# and which are one-sample accidents.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VariabilitySweep:
    """Fig. 5 statistics recomputed over several independent seeds."""

    #: ``(seed, stats)`` per run, in seed order.
    per_seed: Sequence[tuple]

    def correlations_of(self, a: str, b: str) -> list[float]:
        return [stats.correlation(a, b) for _seed, stats in self.per_seed]


def sweep_from_summaries(records) -> VariabilitySweep:
    """Fig. 5 sweep over already-executed runs (shared fan-outs), one
    :class:`~repro.experiments.runner.RunRecord` per seed."""
    return VariabilitySweep(
        per_seed=tuple(
            (record.seed, compute(record.store, record.info))
            for record in records
        )
    )


def build_sweep_table(sweep: VariabilitySweep) -> TextTable:
    table = TextTable(
        headers=["pair", "min r", "median r", "max r", "paper expectation"],
        title=(
            "Fig. 5 — correlation stability across "
            f"{len(sweep.per_seed)} seeds"
        ),
    )
    for a, b, expectation in PAPER_EXPECTATIONS:
        values = sweep.correlations_of(a, b)
        table.add_row(
            f"{a}~{b}",
            f"{min(values):+.2f}",
            f"{median(values):+.2f}",
            f"{max(values):+.2f}",
            expectation,
        )
    return table


def render_sweep(sweep: VariabilitySweep) -> str:
    seeds = ", ".join(str(seed) for seed, _stats in sweep.per_seed)
    return build_sweep_table(sweep).render() + f"\n\nseeds: {seeds}"
