"""Intra-run company sharding: N workers, one deployment, one answer.

One simulated deployment is embarrassingly parallel *between* runs (see
:mod:`repro.experiments.parallel`) but was serial *within* a run. This
module splits a single run's 47 companies across N worker processes —
each worker replays the identical replicated world and trace draws but
materialises and simulates only the companies it owns (DESIGN.md §12) —
then deterministically merges the per-shard measurement stores back into
the exact record order the whole-world run would have logged.

The correctness gates are mechanical, not statistical:

* the cross-shard SMTP exchange (:mod:`repro.net.exchange`) hashes every
  shard's view of the full ``(time, msg_id)`` mail stream per epoch; the
  driver refuses to merge unless all N views agree;
* each worker enforces its own message-lifecycle conservation ledger,
  and the driver additionally sums the snapshots into one aggregate
  verdict;
* the merged store must reproduce ``shards=1`` byte-for-byte —
  ``store_digest(shards=N) == store_digest(shards=1)`` is pinned by
  tests across seeds and fault weather.

Merging relies on every table being time-nondecreasing within a shard
(records are appended at event execution time) and on company-keyed sort
keys reproducing the single-run interleaving: recurring per-company
events (digests, expiry sweeps) fire in ``world.companies`` order in an
unsharded run, which is exactly the ``company_index`` tiebreak; message
arrival times are draws from continuous distributions, so cross-company
ties at equal float times have measure zero.
"""

from __future__ import annotations

import heapq
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

from repro.analysis.context import DeploymentInfo
from repro.analysis.store import LogStore, MergedTable, TABLES
from repro.core.config import CompanyConfig
from repro.core.ledger import LedgerError
from repro.core.recovery import CheckpointError, CheckpointStats, latest_checkpoint
from repro.experiments.parallel import _pool_context
from repro.experiments.runner import (
    CrashStats,
    FaultStats,
    LedgerStats,
    MemoryStats,
    RunSpec,
    ShardRunInfo,
    SimulationResult,
    SubstrateCacheStats,
    run_simulation,
)
from repro.net.exchange import reconcile
from repro.scenarios import resolve_scenario


@dataclass(frozen=True)
class ShardedInstallationView:
    """Config-only stand-in for a live :class:`CompanyInstallation`.

    The live installations die with their workers; merged results keep
    the static per-company configuration so config-level consumers
    (``summarize_result``, the ablation reports) work unchanged.
    """

    config: CompanyConfig


@dataclass(frozen=True)
class ShardPerf:
    """One shard's cost accounting."""

    index: int
    companies: int
    wall_seconds: float
    events_processed: int
    local_rows: int
    remote_rows: int
    max_rss_bytes: int


@dataclass(frozen=True)
class ShardStats:
    """Aggregate verdict of one sharded run."""

    n_shards: int
    jobs: int
    #: company_id -> owning shard index.
    owners: dict
    #: Reconciled exchange manifest: ``(owner, epoch day) -> (count, digest)``.
    manifests: dict
    per_shard: tuple

    @property
    def exchange_rows(self) -> int:
        return sum(count for count, _digest in self.manifests.values())

    @property
    def cross_shard_rows(self) -> int:
        """Rows that crossed a shard boundary (anyone's remote traffic)."""
        return sum(p.remote_rows for p in self.per_shard) // max(
            1, self.n_shards - 1
        ) if self.n_shards > 1 else 0

    @property
    def max_shard_wall_seconds(self) -> float:
        return max(p.wall_seconds for p in self.per_shard)


@dataclass
class ShardOutcome:
    """The picklable residue one shard worker ships back to the driver."""

    index: int
    store: LogStore
    info: DeploymentInfo
    #: company_id -> (position in world.companies, digest hour) — the
    #: merge keys' tiebreak data, derived from the replicated world.
    merge_meta: dict
    company_configs: dict
    shard_info: ShardRunInfo
    ledger_stats: LedgerStats
    fault_stats: FaultStats
    cache_stats: SubstrateCacheStats
    crash_stats: CrashStats
    checkpoint_stats: CheckpointStats
    memory_stats: MemoryStats
    events_processed: int
    wall_seconds: float
    seed: int


def _run_shard(index: int, n_shards: int, spec: RunSpec) -> ShardOutcome:
    """Worker entry point: one shard's full simulation, summarised.
    Module-level so the process pool can pickle it."""
    started = time.perf_counter()
    # Through this module's ``run_simulation`` so a profiler that wraps
    # it (perfbench's shard hook) sees every worker.
    result = run_simulation(**vars(spec), shard_of=(index, n_shards))
    wall = time.perf_counter() - started
    result.store.drop_indices()
    world = result.world
    return ShardOutcome(
        index=index,
        store=result.store,
        info=result.info,
        merge_meta={
            company.company_id: (i, company.config.digest_hour)
            for i, company in enumerate(world.companies)
        },
        company_configs={
            company.company_id: company.config for company in world.companies
        },
        shard_info=result.shard_stats,
        ledger_stats=result.ledger_stats,
        fault_stats=result.fault_stats,
        cache_stats=result.cache_stats,
        crash_stats=result.crash_stats,
        checkpoint_stats=result.checkpoint_stats,
        memory_stats=result.memory_stats,
        events_processed=result.events_processed,
        wall_seconds=wall,
        seed=result.seed,
    )


# -- deterministic store merge ---------------------------------------------

#: Time field per table, for the per-shard nondecreasing order and the
#: merge key. Digests and probes have bespoke keys (below).
_TIME_FIELDS = {
    "mta": "t",
    "dispatch": "t",
    "challenges": "t",
    "challenge_outcomes": "t_final",
    "web_access": "t",
    "releases": "t_release",
    "whitelist_changes": "t",
    "expiries": "t",
    "outbound": "t",
    "crashes": "t",
}


def _merge_keys(merge_meta: dict) -> dict:
    """Per-table sort keys reconstructing the single-run record order."""
    company_index = {
        company_id: index
        for company_id, (index, _hour) in merge_meta.items()
    }
    digest_hour = {
        company_id: hour for company_id, (_index, hour) in merge_meta.items()
    }

    def time_key(t_field: str):
        def key(record, _field=t_field):
            return (getattr(record, _field), company_index[record.company_id])

        return key

    keys = {table: time_key(field) for table, field in _TIME_FIELDS.items()}
    # Digest records carry no timestamp; they fire at
    # day*DAY + digest_hour*HOUR, in company order for equal hours.
    keys["digests"] = lambda r: (
        r.day,
        digest_hour[r.company_id],
        company_index[r.company_id],
    )
    # Probes: within one probe tick the monitor walks server IPs in
    # sorted order, and each IP belongs to exactly one shard.
    keys["probes"] = lambda r: (r.t, r.ip)
    return keys


def _merge_stores(outcomes: list, spilled: bool) -> LogStore:
    """Interleave the per-shard stores into one whole-world store.

    In-memory tables materialise as plain merged lists (cheap — they fit
    by definition); spilled tables stay on disk behind lazy
    :class:`MergedTable` views, so the merged store's resident footprint
    is still bounded by one chunk per shard.
    """
    keys = _merge_keys(outcomes[0].merge_meta)
    merged = LogStore()
    for table in TABLES:
        parts = [getattr(outcome.store, table) for outcome in outcomes]
        key = keys[table]
        if spilled:
            rows: object = MergedTable(parts, key)
        else:
            rows = list(heapq.merge(*parts, key=key))
        setattr(merged, table, rows)
        merged._versions[table] = sum(
            outcome.store._versions[table] for outcome in outcomes
        )
    return merged


# -- stat aggregation -------------------------------------------------------


def _sum_ledgers(outcomes: list) -> LedgerStats:
    snaps = [outcome.ledger_stats for outcome in outcomes]
    per_company = sorted(
        (snapshot for s in snaps for snapshot in s.per_company),
        key=lambda snapshot: snapshot.company_id,
    )
    violations = tuple(v for s in snaps for v in s.violations)
    return LedgerStats(
        audit=all(s.audit for s in snaps),
        accepted=sum(s.accepted for s in snaps),
        delivered=sum(s.delivered for s in snaps),
        black_dropped=sum(s.black_dropped for s in snaps),
        filter_dropped=sum(s.filter_dropped for s in snaps),
        quarantined_total=sum(s.quarantined_total for s in snaps),
        released=sum(s.released for s in snaps),
        deleted=sum(s.deleted for s in snaps),
        expired=sum(s.expired for s in snaps),
        pending_at_horizon=sum(s.pending_at_horizon for s in snaps),
        stranded=sum(s.stranded for s in snaps),
        leaked_challenge_slots=sum(s.leaked_challenge_slots for s in snaps),
        per_company=tuple(per_company),
        violations=violations,
    )


def _sum_faults(outcomes: list) -> FaultStats:
    stats = [outcome.fault_stats for outcome in outcomes]
    return FaultStats(
        enabled=any(s.enabled for s in stats),
        greylist_deferrals=sum(s.greylist_deferrals for s in stats),
        storm_rejections=sum(s.storm_rejections for s in stats),
        outage_failures=sum(s.outage_failures for s in stats),
        dns_failures=sum(s.dns_failures for s in stats),
        retries_scheduled=sum(s.retries_scheduled for s in stats),
        messages_sent=sum(s.messages_sent for s in stats),
        delivered=sum(s.delivered for s in stats),
        bounced=sum(s.bounced for s in stats),
        expired=sum(s.expired for s in stats),
        drained=sum(s.drained for s in stats),
    )


def _sum_caches(outcomes: list) -> SubstrateCacheStats:
    stats = [outcome.cache_stats for outcome in outcomes]
    return SubstrateCacheStats(
        dns_hits=sum(s.dns_hits for s in stats),
        dns_misses=sum(s.dns_misses for s in stats),
        dnsbl_hits=sum(s.dnsbl_hits for s in stats),
        dnsbl_misses=sum(s.dnsbl_misses for s in stats),
        route_hits=sum(s.route_hits for s in stats),
        route_misses=sum(s.route_misses for s in stats),
    )


def _sum_crashes(outcomes: list) -> CrashStats:
    stats = [outcome.crash_stats for outcome in outcomes]
    by_component: dict = {}
    for s in stats:
        for component, count in s.by_component:
            by_component[component] = by_component.get(component, 0) + count
    return CrashStats(
        enabled=any(s.enabled for s in stats),
        crashes=sum(s.crashes for s in stats),
        by_component=tuple(sorted(by_component.items())),
        inbound_deferred=sum(s.inbound_deferred for s in stats),
        inbound_refused=sum(s.inbound_refused for s in stats),
        digests_skipped=sum(s.digests_skipped for s in stats),
        expiries_skipped=sum(s.expiries_skipped for s in stats),
        outbound_deferred=sum(s.outbound_deferred for s in stats),
        redriven=sum(s.redriven for s in stats),
        lost=sum(s.lost for s in stats),
        journals_rebuilt=sum(s.journals_rebuilt for s in stats),
        journal_mismatches=sum(s.journal_mismatches for s in stats),
    )


def _sum_checkpoints(outcomes: list) -> CheckpointStats:
    stats = [outcome.checkpoint_stats for outcome in outcomes]
    return CheckpointStats(
        every=max(s.every for s in stats),
        written=sum(s.written for s in stats),
        write_seconds=sum(s.write_seconds for s in stats),
        last_path=stats[0].last_path,
        restored_from=stats[0].restored_from,
        restore_seconds=sum(s.restore_seconds for s in stats),
    )


def _sum_memory(outcomes: list) -> MemoryStats:
    stats = [outcome.memory_stats for outcome in outcomes]
    return MemoryStats(
        max_rss_bytes=max(s.max_rss_bytes for s in stats),
        store_live_rows=sum(s.store_live_rows for s in stats),
        store_live_bytes=sum(s.store_live_bytes for s in stats),
        store_spilled_bytes=sum(s.store_spilled_bytes for s in stats),
    )


# -- the driver -------------------------------------------------------------


def _shard_spec(spec: RunSpec, index: int) -> RunSpec:
    """Shard *index*'s input: the run's spec with every directory moved
    into a ``shard-<index>`` subdirectory, resuming from the newest
    snapshot in its own one."""

    def under(root: Optional[str]) -> Optional[str]:
        return None if root is None else os.path.join(root, f"shard-{index}")

    resume_from = None
    if spec.resume_from is not None:
        resume_from = latest_checkpoint(under(spec.resume_from))
        if resume_from is None:
            raise CheckpointError(
                f"no shard-{index} snapshot under {spec.resume_from}; a "
                "sharded resume needs every shard's subdirectory"
            )
    return replace(
        spec,
        checkpoint_dir=under(spec.checkpoint_dir),
        spill_dir=under(spec.spill_dir),
        resume_from=resume_from,
    )


def run_sharded_simulation(spec: RunSpec) -> SimulationResult:
    """One deployment simulated across ``spec.shards`` workers, merged back.

    ``spec.shard_jobs`` bounds concurrent worker processes (default one
    per shard); ``1`` runs the shards sequentially in this process — same
    result, and the honest way to measure per-shard cost on a small box.
    Checkpoint and spill directories get per-shard ``shard-<k>``
    subdirectories; ``resume_from`` takes the checkpoint *root* and each
    worker resumes from the newest snapshot in its own subdirectory.

    The scenario's attacks ship to every worker: each replica replays
    the identical attack planning draws — the replicated-trace invariant
    — while only the victim company's owner shard materialises and
    delivers the forged mail, so the merged store still matches
    ``shards=1`` byte-for-byte.
    """
    shards = spec.shards
    if shards is None or shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    started = time.perf_counter()
    jobs = spec.shard_jobs or shards
    per_shard = [_shard_spec(spec, index) for index in range(shards)]

    if jobs == 1 or shards == 1:
        outcomes = [
            _run_shard(index, shards, shard_spec)
            for index, shard_spec in enumerate(per_shard)
        ]
    else:
        with ProcessPoolExecutor(
            max_workers=min(jobs, shards), mp_context=_pool_context()
        ) as pool:
            futures = [
                pool.submit(_run_shard, index, shards, shard_spec)
                for index, shard_spec in enumerate(per_shard)
            ]
            outcomes = [future.result() for future in futures]

    # Replica-consistency gate: every shard's view of the full exchange
    # stream must agree before any merging happens.
    manifests = reconcile([o.shard_info.manifests for o in outcomes])

    ledger_stats = _sum_ledgers(outcomes)
    if not ledger_stats.conserved:
        raise LedgerError(
            "message-lifecycle conservation violated across shards:\n  "
            + "\n  ".join(ledger_stats.violations)
        )

    merged = _merge_stores(outcomes, spilled=spec.spill_dir is not None)
    # Ownership straight from the workers: local companies are the ones
    # whose installations produced ledger snapshots.
    owners: dict = {}
    for outcome in outcomes:
        for snapshot in outcome.ledger_stats.per_company:
            owners[snapshot.company_id] = outcome.index

    shard_stats = ShardStats(
        n_shards=shards,
        jobs=jobs,
        owners=owners,
        manifests=manifests,
        per_shard=tuple(
            ShardPerf(
                index=outcome.index,
                companies=len(outcome.ledger_stats.per_company),
                wall_seconds=outcome.wall_seconds,
                events_processed=outcome.events_processed,
                local_rows=outcome.shard_info.local_rows,
                remote_rows=outcome.shard_info.remote_rows,
                max_rss_bytes=outcome.memory_stats.max_rss_bytes,
            )
            for outcome in outcomes
        ),
    )
    return SimulationResult(
        store=merged,
        world=None,
        simulator=None,
        installations={
            company_id: ShardedInstallationView(config)
            for company_id, config in sorted(
                outcomes[0].company_configs.items()
            )
        },
        monitor=None,
        info=outcomes[0].info,
        seed=spec.seed,
        wall_seconds=time.perf_counter() - started,
        cache_stats=_sum_caches(outcomes),
        fault_stats=_sum_faults(outcomes),
        ledger_stats=ledger_stats,
        crash_stats=_sum_crashes(outcomes),
        checkpoint_stats=_sum_checkpoints(outcomes),
        memory_stats=_sum_memory(outcomes),
        events_processed=sum(o.events_processed for o in outcomes),
        shard_stats=shard_stats,
        scenario=resolve_scenario(spec.scenario),
    )
