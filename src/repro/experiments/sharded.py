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
from repro.core.recovery import CheckpointError, latest_checkpoint
from repro.experiments.parallel import _pool_context
from repro.experiments.runner import (
    LedgerStats,
    RunSpec,
    SimulationResult,
    run_simulation,
)
from repro.net.exchange import ShardExchange, reconcile
from repro.scenarios import resolve_scenario
from repro.util.metrics import merge


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

    def metrics(self) -> dict:
        """The exchange total and each shard's cost under ``shard.*``
        names, for display next to the run's metrics map (per-process
        work, so never part of it)."""
        metrics = {"shard.exchange_rows": self.exchange_rows}
        for perf in self.per_shard:
            metrics.update(
                (f"shard.{perf.index}.{name}", value)
                for name, value in vars(perf).items()
                if name != "index"
            )
        return metrics


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
    #: The worker's manifests and local/remote row counts.
    exchange: ShardExchange
    #: The worker's own metrics map, merged by the declared rules.
    metrics: dict
    #: Ledger snapshots of the companies this shard owns.
    ledger_snapshots: tuple
    restored_from: Optional[str]
    wall_seconds: float


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
        exchange=result.exchange,
        metrics=result.metrics,
        ledger_snapshots=result.ledger_snapshots,
        restored_from=result.restored_from,
        wall_seconds=wall,
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
    manifests = reconcile([o.exchange.manifests for o in outcomes])

    # Each worker enforced its own companies' ledgers; the sums must
    # conserve too.
    metrics = merge(outcome.metrics for outcome in outcomes)
    ledger = LedgerStats(metrics, tuple(sorted(
        (s for outcome in outcomes for s in outcome.ledger_snapshots),
        key=lambda snapshot: snapshot.company_id,
    )))
    if not ledger.conserved:
        raise LedgerError(
            "message-lifecycle conservation violated across shards: "
            f"{ledger.accepted} accepted, {ledger.terminal_total} terminal, "
            f"{ledger.in_quarantine} in quarantine, {ledger.stranded} "
            f"stranded, {ledger.leaked_challenge_slots} leaked challenge "
            "slot(s)"
        )

    merged = _merge_stores(outcomes, spilled=spec.spill_dir is not None)
    # Ownership straight from the workers: local companies are the ones
    # whose installations produced ledger snapshots.
    owners: dict = {}
    for outcome in outcomes:
        for snapshot in outcome.ledger_snapshots:
            owners[snapshot.company_id] = outcome.index

    shard_stats = ShardStats(
        n_shards=shards,
        jobs=jobs,
        owners=owners,
        manifests=manifests,
        per_shard=tuple(
            ShardPerf(
                index=outcome.index,
                companies=len(outcome.ledger_snapshots),
                wall_seconds=outcome.wall_seconds,
                events_processed=outcome.metrics["sim.events"],
                local_rows=outcome.exchange.local_rows,
                remote_rows=outcome.exchange.remote_rows,
                max_rss_bytes=outcome.metrics["memory.max_rss_bytes"],
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
        metrics=metrics,
        ledger_snapshots=ledger.per_company,
        restored_from=outcomes[0].restored_from,
        shard_stats=shard_stats,
        scenario=resolve_scenario(spec.scenario),
    )
