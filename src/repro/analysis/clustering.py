"""Figure 6 / §4.1: spam-campaign clustering and spurious deliveries.

The paper clusters gray-spool messages by exact subject (at least 10 words
long, clusters of at least 50 messages) and splits the clusters by sender
similarity:

* high sender similarity (few senders / near-identical addresses like
  ``dept-x.p@scn-1.com``) — newsletters and marketing campaigns; some have
  solved-challenge rates as high as 97 %;
* low sender similarity (many senders across many domains) — botnet spam;
  ~31 % of their challenges bounce for non-existent recipients and at most
  one or two CAPTCHAs per cluster get solved.

Only 28 of 1,775 clusters contained a solved challenge, and the solved ones
in low-similarity clusters are the backscatter mechanism behind roughly one
spurious spam delivery per 10,000 challenges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.context import DeploymentInfo
from repro.analysis.store import LogStore
from repro.net.smtp import BounceReason
from repro.util.render import ComparisonTable, TextTable
from repro.util.stats import safe_ratio

#: A cluster counts as "high sender similarity" when this share of its
#: messages comes from one sender domain (the paper's qualitative split).
HIGH_SIMILARITY_DOMAIN_SHARE = 0.8
MIN_SUBJECT_WORDS = 10


@dataclass(frozen=True)
class Cluster:
    subject: str
    size: int
    distinct_senders: int
    distinct_domains: int
    dominant_domain_share: float
    challenges: int
    solved: int
    bounced_nonexistent: int

    @property
    def high_similarity(self) -> bool:
        return self.dominant_domain_share >= HIGH_SIMILARITY_DOMAIN_SHARE

    @property
    def solve_rate(self) -> float:
        return safe_ratio(self.solved, self.challenges)

    @property
    def bounce_rate(self) -> float:
        return safe_ratio(self.bounced_nonexistent, self.challenges)


@dataclass(frozen=True)
class ClusteringStats:
    clusters: Sequence[Cluster]
    spurious_deliveries: int
    challenges_sent: int

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def clusters_with_solved(self) -> int:
        return sum(1 for c in self.clusters if c.solved > 0)

    @property
    def high_similarity_clusters(self) -> Sequence[Cluster]:
        return [c for c in self.clusters if c.high_similarity]

    @property
    def low_similarity_clusters(self) -> Sequence[Cluster]:
        return [c for c in self.clusters if not c.high_similarity]

    @property
    def spurious_rate(self) -> float:
        """Spurious spam deliveries per challenge sent (paper ~1e-4)."""
        return safe_ratio(self.spurious_deliveries, self.challenges_sent)

    @property
    def solved_cluster_share(self) -> float:
        return safe_ratio(self.clusters_with_solved, self.n_clusters)

    @property
    def n_high_similarity(self) -> int:
        return len(self.high_similarity_clusters)

    @property
    def n_low_similarity(self) -> int:
        return len(self.low_similarity_clusters)

    @property
    def max_high_solve_rate(self) -> float:
        """Best solve rate of a solving marketing cluster (paper: 97 %);
        0 when none solves."""
        return max(
            (c.solve_rate for c in self.high_similarity_clusters if c.solved),
            default=0.0,
        )

    @property
    def low_avg_bounce_rate(self) -> float:
        """Mean non-existent bounce rate of botnet clusters (paper: 31 %)."""
        low = self.low_similarity_clusters
        return safe_ratio(sum(c.bounce_rate for c in low), len(low))

    @property
    def low_max_solved(self) -> int:
        """Most solves in one botnet cluster (paper: 1-2); 0 when none."""
        return max((c.solved for c in self.low_similarity_clusters), default=0)

    @property
    def low_avg_solved(self) -> float:
        """Mean solves per solving botnet cluster (paper: 1-2)."""
        solving = [c.solved for c in self.low_similarity_clusters if c.solved]
        return safe_ratio(sum(solving), len(solving))


def compute(store: LogStore, info: DeploymentInfo) -> ClusteringStats:
    """Cluster quarantined gray messages by exact subject."""
    min_size = info.min_cluster_size
    index = store.index()

    # Quarantined messages (the gray spool: gray and not filter-dropped)
    # arrive pre-grouped by subject; the word-count filter applies per
    # subject, so filtering groups here matches filtering records.
    by_subject = index.dispatch.quarantined_by_subject
    solved_ids = index.web.solved_ids
    outcome_by_id = index.outcomes.by_challenge

    clusters = []
    for subject, records in by_subject.items():
        if len(subject.split()) < MIN_SUBJECT_WORDS:
            continue
        if len(records) < min_size:
            continue
        senders = {r.env_from for r in records}
        domain_counts = Counter(
            r.env_from.rsplit("@", 1)[-1] for r in records
        )
        dominant_share = domain_counts.most_common(1)[0][1] / len(records)
        challenge_ids = {
            (r.company_id, r.challenge_id)
            for r in records
            if r.challenge_id is not None and r.challenge_created
        }
        solved = len(challenge_ids & solved_ids)
        bounced = 0
        for key in challenge_ids:
            outcome = outcome_by_id.get(key)
            if (
                outcome is not None
                and outcome.bounce_reason is BounceReason.NONEXISTENT_RECIPIENT
            ):
                bounced += 1
        clusters.append(
            Cluster(
                subject=subject,
                size=len(records),
                distinct_senders=len(senders),
                distinct_domains=len(domain_counts),
                dominant_domain_share=dominant_share,
                challenges=len(challenge_ids),
                solved=solved,
                bounced_nonexistent=bounced,
            )
        )
    clusters.sort(key=lambda c: c.size, reverse=True)

    spurious = index.releases.captcha_spam
    return ClusteringStats(
        clusters=clusters,
        spurious_deliveries=spurious,
        challenges_sent=len(store.challenges),
    )


def build_table(stats: ClusteringStats, info: DeploymentInfo) -> ComparisonTable:
    table = ComparisonTable(
        "Fig. 6 / Sec. 4.1 — gray-spool subject clustering "
        f"(min cluster size {info.min_cluster_size} at this scale; paper used 50)"
    )
    table.add("clusters found (paper: 1775 at full scale)", None, stats.n_clusters)
    table.add("clusters with >=1 solved challenge (paper: 28/1775)", None,
              stats.clusters_with_solved)
    if stats.clusters:
        sizes = [c.size for c in stats.clusters]
        table.add("largest cluster size", None, max(sizes))
    high = stats.high_similarity_clusters
    low = stats.low_similarity_clusters
    table.add("high sender-similarity clusters", None, len(high))
    table.add("low sender-similarity clusters", None, len(low))
    if any(c.solved for c in high):
        table.add(
            "max solve rate in high-similarity clusters",
            97.0,
            100.0 * stats.max_high_solve_rate,
            "%",
        )
    if low:
        table.add(
            "avg non-existent bounce rate, low-similarity clusters",
            31.0,
            100.0 * stats.low_avg_bounce_rate,
            "%",
        )
        if stats.low_max_solved:
            table.add(
                "avg solved per solving low-similarity cluster (paper: 1-2)",
                1.5,
                stats.low_avg_solved,
            )
    table.add(
        "spurious spam deliveries per 10k challenges",
        1.0,
        1e4 * stats.spurious_rate,
    )
    return table


def build_top_clusters_table(stats: ClusteringStats, top: int = 10) -> TextTable:
    table = TextTable(
        headers=["size", "senders", "domains", "similarity", "challenges",
                 "solved", "subject"],
        title=f"Fig. 6 — top {top} clusters",
    )
    for cluster in stats.clusters[:top]:
        table.add_row(
            cluster.size,
            cluster.distinct_senders,
            cluster.distinct_domains,
            "high" if cluster.high_similarity else "low",
            cluster.challenges,
            cluster.solved,
            cluster.subject[:48],
        )
    return table


def render(store: LogStore, info: DeploymentInfo) -> str:
    stats = compute(store, info)
    return "\n\n".join(
        [
            build_table(stats, info).render(),
            build_top_clusters_table(stats).render(),
        ]
    )
