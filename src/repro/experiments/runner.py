"""Run one full simulated deployment and collect its measurement logs.

A :class:`RunSpec` declares every input of a run. ``run_simulation``
(keyword form) and :func:`simulate` (spec form) are the single entry point
used by tests, benchmarks, and examples: a run builds the world,
instantiates one
:class:`~repro.core.engine.CompanyInstallation` per company, seeds the
steady-state whitelists/blacklists, arms the blacklist probe monitor and the
trace generator, runs the clock over the observation window (plus a drain
period for in-flight challenge retries), and returns everything the analysis
pipeline needs.
"""

from __future__ import annotations

import hashlib
import os
import resource
import sys
import time
from dataclasses import dataclass, fields, replace
from typing import Optional, Union

from repro._version import __version__
from repro.analysis.context import DeploymentInfo
from repro.analysis.store import SPILL_CHUNK_ROWS, LogStore, SpillConfig
from repro.blacklistd.monitor import BlacklistMonitor
from repro.core.config import FilterChainSpec
from repro.core.engine import CompanyInstallation
from repro.core.ledger import LedgerError, LedgerSnapshot
from repro.core.message import reset_msg_ids
from repro.core.recovery import (
    Checkpointer,
    CheckpointStats,
    RunState,
    load_checkpoint,
)
from repro.net.crashes import CrashPlan, CrashSettings, get_crash_preset
from repro.net.exchange import ShardContext, ShardExchange, ShardMap
from repro.net.faults import FaultPlan, FaultSettings, get_fault_preset
from repro.sim.engine import Simulator
from repro.util.gcpause import CollectorPause
from repro.util.rng import RngStreams
from repro.util.simtime import DAY
from repro.workload.behavior import BehaviorModel
from repro.workload.calibration import Calibration, DEFAULT_CALIBRATION
from repro.workload.entities import World, build_world
from repro.workload.generator import TraceGenerator
from repro.workload.scale import ScaleConfig, get_preset


@dataclass(frozen=True)
class SubstrateCacheStats:
    """Hit/miss counters of the simulated-substrate caches after one run."""

    dns_hits: int
    dns_misses: int
    dnsbl_hits: int
    dnsbl_misses: int
    route_hits: int
    route_misses: int

    @staticmethod
    def _rate(hits: int, misses: int) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    @property
    def dns_hit_rate(self) -> float:
        return self._rate(self.dns_hits, self.dns_misses)

    @property
    def dnsbl_hit_rate(self) -> float:
        return self._rate(self.dnsbl_hits, self.dnsbl_misses)

    @property
    def route_hit_rate(self) -> float:
        return self._rate(self.route_hits, self.route_misses)

    @classmethod
    def collect(cls, world: World) -> "SubstrateCacheStats":
        services = list(world.services.values())
        return cls(
            dns_hits=world.resolver.cache_hits,
            dns_misses=world.resolver.cache_misses,
            dnsbl_hits=sum(s.cache_hits for s in services),
            dnsbl_misses=sum(s.cache_misses for s in services),
            route_hits=world.internet.route_hits,
            route_misses=world.internet.route_misses,
        )


@dataclass(frozen=True)
class FaultStats:
    """Fault-injection counters plus the delivery-conservation ledger.

    Collected after every run (faults enabled or not): the conservation
    invariant — every message handed to an outbound MTA reached exactly
    one terminal status — is checked unconditionally.
    """

    enabled: bool
    greylist_deferrals: int
    storm_rejections: int
    outage_failures: int
    dns_failures: int
    retries_scheduled: int
    messages_sent: int
    delivered: int
    bounced: int
    expired: int
    #: Messages force-expired by the end-of-run drain (0 when the event
    #: queue emptied on its own, which it does for full-horizon runs).
    drained: int

    @property
    def conserved(self) -> bool:
        """Every sent message reached exactly one terminal status."""
        return self.messages_sent == self.delivered + self.bounced + self.expired

    @classmethod
    def collect(
        cls,
        plan: Optional[FaultPlan],
        installations: dict[str, CompanyInstallation],
    ) -> "FaultStats":
        counters = plan.counters if plan is not None else None
        mtas = _unique_mtas(installations)
        return cls(
            enabled=plan is not None,
            greylist_deferrals=counters.greylist_deferrals if counters else 0,
            storm_rejections=counters.storm_rejections if counters else 0,
            outage_failures=counters.outage_failures if counters else 0,
            dns_failures=counters.dns_failures if counters else 0,
            retries_scheduled=sum(m.retries_scheduled for m in mtas),
            messages_sent=sum(m.sent_messages for m in mtas),
            delivered=sum(m.delivered for m in mtas),
            bounced=sum(m.bounced for m in mtas),
            expired=sum(m.expired for m in mtas),
            drained=sum(m.drained for m in mtas),
        )


@dataclass(frozen=True)
class LedgerStats:
    """End-of-run verdict of the message-lifecycle ledger.

    The inbound mirror of :class:`FaultStats`' delivery conservation:
    every message MTA-IN accepted must sit in exactly one terminal bucket
    (``accepted == delivered + black_dropped + filter_dropped + released
    + deleted + expired + pending_at_horizon``) with nothing left in
    quarantine and no pending-challenge slot outliving its messages.
    Collected — and enforced — after every run; ``audit`` records whether
    the run also validated each transition as it happened.
    """

    audit: bool
    accepted: int
    delivered: int
    black_dropped: int
    filter_dropped: int
    quarantined_total: int
    released: int
    deleted: int
    expired: int
    pending_at_horizon: int
    #: Messages without a terminal status at end-of-run (must be 0).
    stranded: int
    #: Pending-challenge slots still live after the horizon drain — each
    #: one means a sender's next message would skip its challenge.
    leaked_challenge_slots: int
    per_company: tuple[LedgerSnapshot, ...]
    violations: tuple[str, ...]

    @property
    def terminal_total(self) -> int:
        return (
            self.delivered
            + self.black_dropped
            + self.filter_dropped
            + self.released
            + self.deleted
            + self.expired
            + self.pending_at_horizon
        )

    @property
    def conserved(self) -> bool:
        return not self.violations

    @classmethod
    def collect(
        cls, installations: dict[str, CompanyInstallation]
    ) -> "LedgerStats":
        """Snapshot every company's ledger and cross-check it against the
        gray spool's and challenge manager's own counters. Call after
        ``shutdown()`` has drained the spools."""
        snapshots = []
        violations = []
        leaked_slots = 0
        audit = False
        for company_id in sorted(installations):
            inst = installations[company_id]
            snap = inst.ledger.snapshot()
            snapshots.append(snap)
            audit = audit or snap.audit
            if not snap.conserved:
                violations.append(
                    f"{company_id}: {snap.accepted} accepted != "
                    f"{snap.terminal_total} terminal "
                    f"(in quarantine: {snap.in_quarantine}, "
                    f"stranded: {len(snap.stranded)})"
                )
            spool = inst.gray_spool
            spool_view = (
                spool.total_entered,
                spool.total_released,
                spool.total_expired,
                spool.total_deleted,
                spool.total_pending_at_horizon,
                spool.pending_count,
            )
            ledger_view = (
                snap.quarantined_total,
                snap.released,
                snap.expired,
                snap.deleted,
                snap.pending_at_horizon,
                snap.in_quarantine,
            )
            if spool_view != ledger_view:
                violations.append(
                    f"{company_id}: gray spool disagrees with ledger: "
                    f"spool {spool_view} != ledger {ledger_view} "
                    f"(entered/released/expired/deleted/at-horizon/pending)"
                )
            leaked = inst.challenge_manager.pending_count
            if leaked:
                leaked_slots += leaked
                slots = inst.challenge_manager.pending_items()[:5]
                violations.append(
                    f"{company_id}: {leaked} pending-challenge slot(s) "
                    f"outlived their quarantined messages: {slots}"
                )
        totals = {
            field: sum(getattr(s, field) for s in snapshots)
            for field in (
                "accepted",
                "delivered",
                "black_dropped",
                "filter_dropped",
                "quarantined_total",
                "released",
                "deleted",
                "expired",
                "pending_at_horizon",
            )
        }
        return cls(
            audit=audit,
            stranded=sum(len(s.stranded) for s in snapshots),
            leaked_challenge_slots=leaked_slots,
            per_company=tuple(snapshots),
            violations=tuple(violations),
            **totals,
        )


@dataclass(frozen=True)
class CrashStats:
    """Crash-injection counters plus the recovery verdict.

    ``journal_mismatches`` must stay 0 under the ``journaled`` durability
    model — a rebuilt index that disagrees with pre-crash state is a
    recovery bug, not bad weather. ``lost`` is nonzero only under the
    deliberately broken ``lossy`` model (where the lifecycle ledger is
    expected to blow up)."""

    enabled: bool
    crashes: int
    by_component: tuple
    inbound_deferred: int
    inbound_refused: int
    digests_skipped: int
    expiries_skipped: int
    outbound_deferred: int
    redriven: int
    lost: int
    journals_rebuilt: int
    journal_mismatches: int

    @property
    def clean_recovery(self) -> bool:
        """No message lost, every journal rebuilt consistently."""
        return self.lost == 0 and self.journal_mismatches == 0

    @classmethod
    def collect(cls, plan: Optional[CrashPlan]) -> "CrashStats":
        if plan is None:
            return cls(
                enabled=False, crashes=0, by_component=(),
                inbound_deferred=0, inbound_refused=0, digests_skipped=0,
                expiries_skipped=0, outbound_deferred=0, redriven=0,
                lost=0, journals_rebuilt=0, journal_mismatches=0,
            )
        c = plan.counters
        return cls(
            enabled=True,
            crashes=c.crashes,
            by_component=tuple(sorted(c.by_component.items())),
            inbound_deferred=c.inbound_deferred,
            inbound_refused=c.inbound_refused,
            digests_skipped=c.digests_skipped,
            expiries_skipped=c.expiries_skipped,
            outbound_deferred=c.outbound_deferred,
            redriven=c.redriven,
            lost=c.lost,
            journals_rebuilt=c.journals_rebuilt,
            journal_mismatches=c.journal_mismatches,
        )


@dataclass(frozen=True)
class MemoryStats:
    """Peak-memory accounting for one run (or one shard of a run).

    ``max_rss_bytes`` is the process high-water mark — with spill enabled
    it should stay roughly flat as the horizon grows, which is the whole
    point of the streaming store. The ``store_*`` fields split the
    measurement database between its bounded in-memory tails and what
    already went to disk.
    """

    max_rss_bytes: int
    store_live_rows: int
    store_live_bytes: int
    store_spilled_bytes: int

    @classmethod
    def collect(cls, store: LogStore) -> "MemoryStats":
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is kilobytes on Linux, bytes on macOS.
        if sys.platform != "darwin":
            rss *= 1024
        return cls(
            max_rss_bytes=rss,
            store_live_rows=store.live_rows(),
            store_live_bytes=store.live_bytes_estimate(),
            store_spilled_bytes=store.spilled_bytes(),
        )


@dataclass(frozen=True)
class ShardRunInfo:
    """One shard's exchange-side residue, for the driver's reconciler."""

    index: int
    n_shards: int
    #: ``(owner shard, epoch day) -> (row count, stream digest)``.
    manifests: dict
    local_rows: int
    remote_rows: int


def _unique_mtas(installations: dict[str, CompanyInstallation]) -> list:
    """Each installation's outbound MTAs, deduplicated — non-dual
    installations share one object between user and challenge mail."""
    mtas: dict[int, object] = {}
    for installation in installations.values():
        for mta in (installation.user_mta, installation.challenge_mta):
            mtas[id(mta)] = mta
    return list(mtas.values())


@dataclass
class SimulationResult:
    """Everything one run produced."""

    store: LogStore
    world: World
    simulator: Simulator
    installations: dict[str, CompanyInstallation]
    monitor: BlacklistMonitor
    info: DeploymentInfo
    seed: int
    wall_seconds: float
    cache_stats: SubstrateCacheStats
    fault_stats: Optional[FaultStats] = None
    ledger_stats: Optional[LedgerStats] = None
    crash_stats: Optional[CrashStats] = None
    checkpoint_stats: Optional[CheckpointStats] = None
    memory_stats: Optional[MemoryStats] = None
    #: Engine event count (mirrors ``simulator.events_processed``; summed
    #: across workers for sharded runs, where ``simulator`` is ``None``).
    events_processed: int = 0
    #: Per-shard :class:`ShardRunInfo` for a shard worker, an aggregate
    #: :class:`repro.experiments.sharded.ShardStats` for a merged sharded
    #: result, ``None`` for plain runs.
    shard_stats: object = None
    #: The resolved :class:`repro.scenarios.ScenarioSpec` this run
    #: executed, ``None`` for scenario-free runs. The ``verdicts``
    #: experiment evaluates its checks against the store.
    scenario: object = None


#: :class:`RunSpec` fields that never change what a run measures: its
#: display name, where its files go, and how many processes do the work.
#: Every other field is part of :meth:`RunSpec.cache_key`.
NON_KEY_FIELDS = frozenset(
    {"label", "checkpoint_dir", "resume_from", "spill_dir",
     "spill_chunk_rows", "shard_jobs"}
)


@dataclass(frozen=True)
class RunSpec:
    """Every input of one simulated run, frozen.

    ``run_simulation``, the sharded runner, the sweep runner and the CLI
    all take their inputs from this one declaration. Attacks come only
    from ``scenario``; the filter chain only from ``chain``.

    Fields that change the run are part of :meth:`cache_key` — even
    ``audit``, ``checkpoint_every``, ``batch_delivery`` and ``shards``,
    whose output is byte-identical: a request to exercise that machinery
    must actually run it, not be answered from the cache. The fields in
    :data:`NON_KEY_FIELDS` are not.
    """

    #: Scale preset name or an explicit :class:`ScaleConfig`.
    preset: Union[str, ScaleConfig] = "tiny"
    seed: int = 7
    #: ``None`` = :data:`~repro.workload.calibration.DEFAULT_CALIBRATION`.
    calibration: Optional[Calibration] = None
    #: :class:`~repro.core.config.CompanyConfig` field replacements applied
    #: to every company (the dedup ablation turns ``challenge_dedup`` off).
    config_overrides: Optional[dict] = None
    #: Network weather: a preset name (``"mild"``, ``"stormy"``, see
    #: :data:`~repro.net.faults.FAULT_PRESETS`), a :class:`FaultSettings`,
    #: or ``None`` for the scenario's weather, else a reliable substrate.
    faults: Union[str, FaultSettings, None] = None
    #: Continuous lifecycle auditing (:mod:`repro.core.ledger`);
    #: ``REPRO_AUDIT=1`` does the same. The end-of-run conservation
    #: verdict is enforced either way.
    audit: bool = False
    #: Component crashes: a preset name (``"rare"``, ``"flaky"``, see
    #: :data:`~repro.net.crashes.CRASH_PRESETS`), a :class:`CrashSettings`,
    #: or ``None``, with the same scenario fallback as ``faults``.
    crashes: Union[str, CrashSettings, None] = None
    #: Declarative attack scenario: a pack name, a ``.yaml`` path or a
    #: :class:`~repro.scenarios.ScenarioSpec`. Its attacks are installed;
    #: its weather and chain apply where the fields above are ``None``.
    scenario: object = None
    #: Auxiliary filter chain: a :class:`~repro.core.config.FilterChainSpec`,
    #: a preset name (``"hybrid"``) or a comma list of members. ``None``
    #: is the scenario's chain, else the ``default`` preset.
    chain: object = None
    #: Whole-state snapshot interval in sim-seconds (into
    #: ``checkpoint_dir``); ``None`` = no checkpointing.
    checkpoint_every: Optional[float] = None
    #: ``False`` schedules each generated message as its own heap entry
    #: instead of one batch per day: same draws, same store, slower. The
    #: batched-vs-unbatched digest tests compare the two.
    batch_delivery: bool = True
    #: Partition the companies across this many workers (DESIGN.md §12);
    #: the merged store is digest-identical to the single-process run.
    shards: Optional[int] = None
    #: Concurrent shard workers (default one per shard; ``1`` runs the
    #: shards sequentially in-process).
    shard_jobs: Optional[int] = None
    checkpoint_dir: Optional[str] = None
    #: Restore this snapshot and continue the run; every build-time field
    #: is then taken from the snapshot. Sharded, it names the checkpoint
    #: root holding one ``shard-<k>`` directory per shard.
    resume_from: Optional[str] = None
    #: Stream full chunks of ``spill_chunk_rows`` records to columnar
    #: files under this directory, bounding the store's resident memory.
    spill_dir: Optional[str] = None
    spill_chunk_rows: Optional[int] = None
    label: str = ""

    def resolved(self) -> "RunSpec":
        """This spec with every name and default looked up.

        The result holds the :class:`ScaleConfig`, the calibration, the
        :class:`~repro.scenarios.ScenarioSpec` and the
        :class:`FilterChainSpec` the run actually uses, and the scenario's
        weather where ``faults``/``crashes`` were ``None``, so two
        notations of one run resolve (and hash) alike. Weather preset
        names stay names until the run starts.
        """
        scenario, faults, crashes = None, self.faults, self.crashes
        chain = FilterChainSpec.parse(self.chain)
        if self.scenario is not None:
            from repro.scenarios import resolve_scenario

            scenario = resolve_scenario(self.scenario)
            faults = scenario.faults if faults is None else faults
            crashes = scenario.crashes if crashes is None else crashes
            chain = chain or scenario.chain_spec()
        return replace(
            self,
            preset=(
                get_preset(self.preset)
                if isinstance(self.preset, str)
                else self.preset
            ),
            calibration=self.calibration or DEFAULT_CALIBRATION,
            config_overrides=dict(
                sorted((self.config_overrides or {}).items())
            ),
            faults=faults,
            crashes=crashes,
            scenario=scenario,
            chain=chain or FilterChainSpec(),
        )

    def cache_key(self) -> str:
        """Content hash of the resolved spec's key fields, tied to the
        package version (bumping it retires every cached run).

        Built from dataclass ``repr``s, which are deterministic for the
        frozen config types involved.
        """
        resolved = self.resolved()
        canonical = repr(
            (__version__,)
            + tuple(
                (f.name, getattr(resolved, f.name))
                for f in fields(self)
                if f.name not in NON_KEY_FIELDS
            )
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_simulation(
    preset: Union[str, ScaleConfig] = "tiny",
    seed: int = 7,
    *,
    shard_of: Optional[tuple] = None,
    **spec_fields,
) -> SimulationResult:
    """Simulate ``RunSpec(preset, seed, **spec_fields)``; see
    :class:`RunSpec` for every field and :func:`simulate` for *shard_of*."""
    return simulate(RunSpec(preset, seed, **spec_fields), shard_of=shard_of)


def simulate(
    spec: RunSpec, shard_of: Optional[tuple] = None
) -> SimulationResult:
    """Run one deployment as *spec* declares it.

    A fresh run builds the world, installs the product at every company,
    arms the probe monitor, the trace generator, the scenario's attacks
    and any fault/crash plans, then runs the clock (see
    :func:`_finish_run`). ``resume_from`` instead restores a snapshot and
    continues it; the store is byte-identical to the uninterrupted run's.

    ``shards`` > 1 hands the spec to
    :func:`repro.experiments.sharded.run_sharded_simulation`. *shard_of*
    ``(index, n_shards)`` is its internal marker for one shard's
    worker.
    """
    if shard_of is None and spec.shards is not None and spec.shards > 1:
        from repro.experiments.sharded import run_sharded_simulation

        return run_sharded_simulation(spec)

    started = time.perf_counter()
    # Entered before the world build so fresh, resumed and shard-worker
    # runs all build, run and tear down with the collector paused.
    with CollectorPause() as collector:
        resume_from = spec.resume_from
        if resume_from is None:
            return _finish_run(_build_run(spec, shard_of), started, collector)
        restore_started = time.perf_counter()
        state = load_checkpoint(resume_from)
        restore_seconds = time.perf_counter() - restore_started
        if spec.checkpoint_every is not None and state.checkpointer is None:
            directory = spec.checkpoint_dir or os.path.dirname(resume_from)
            checkpointer = Checkpointer(state, directory, spec.checkpoint_every)
            checkpointer.arm()
        return _finish_run(
            state, started, collector,
            restored_from=resume_from, restore_seconds=restore_seconds,
        )


def _build_run(spec: RunSpec, shard_of: Optional[tuple]) -> RunState:
    """A fresh run's world, installations, monitor, generator, attacks
    and fault/crash plans, with the clock not yet started."""
    spec = spec.resolved()
    faults, crashes = spec.faults, spec.crashes
    if isinstance(faults, str):
        faults = get_fault_preset(faults)
    if isinstance(crashes, str):
        crashes = get_crash_preset(crashes)
    audit = spec.audit or os.environ.get("REPRO_AUDIT", "") not in ("", "0")
    scale = spec.preset
    calibration = spec.calibration
    attacks = spec.scenario.build_attacks() if spec.scenario else []
    reset_msg_ids()

    streams = RngStreams(spec.seed)
    world = build_world(scale, calibration, streams, spec.config_overrides)
    simulator = Simulator()
    spill = None
    if spec.spill_dir is not None:
        spill = SpillConfig(
            directory=spec.spill_dir,
            chunk_rows=spec.spill_chunk_rows or SPILL_CHUNK_ROWS,
        )
    store = LogStore(spill=spill)
    behavior = BehaviorModel(world, calibration, streams)
    hooks = behavior.hooks()
    shard_ctx = None
    if shard_of is not None:
        index, n_shards = shard_of
        shard_map = ShardMap.from_world(world, n_shards)
        shard_ctx = ShardContext(
            shard_map=shard_map,
            index=index,
            exchange=ShardExchange(n_shards=n_shards, shard_index=index),
        )

    horizon = scale.n_days * DAY
    fault_plan = None
    if faults is not None and faults.enabled:
        fault_plan = FaultPlan(
            faults, seed=spec.seed, horizon=horizon, clock=simulator
        )
        world.install_fault_plan(fault_plan)
    installations: dict[str, CompanyInstallation] = {}
    for company in world.companies:
        # A shard worker instantiates only its own companies; remote
        # companies' draws all come from per-company or replicated
        # streams, so skipping their setup consumes nothing shared.
        if (
            shard_ctx is not None
            and shard_ctx.shard_map.owner_of(company.company_id)
            != shard_ctx.index
        ):
            continue
        installation = CompanyInstallation(
            config=company.config,
            simulator=simulator,
            internet=world.internet,
            resolver=world.resolver,
            store=store,
            dnsbl_services=world.services,
            rng=streams.stream(f"antivirus/{company.company_id}"),
            hooks=hooks,
            challenge_size=calibration.challenge_size,
            audit=audit,
            chain=spec.chain,
        )
        _seed_user_lists(installation, company, calibration)
        installation.start(until=horizon)
        installations[company.company_id] = installation
    _seed_newsletter_whitelists(installations, world, calibration, streams)

    server_ips = sorted(
        {inst.challenge_mta.ip for inst in installations.values()}
        | {inst.user_mta.ip for inst in installations.values()}
    )
    monitor = BlacklistMonitor(
        simulator,
        list(world.services.values()),
        server_ips,
        sink=store.add_probe,
    )
    monitor.start(until=horizon)

    generator = TraceGenerator(
        world, simulator, installations, streams,
        batch_delivery=spec.batch_delivery, shard=shard_ctx,
    )
    generator.start(scale.n_days)
    for attack in attacks:
        attack.install(
            world, simulator, installations, streams,
            shard=shard_ctx, behavior=behavior,
        )

    crash_plan = None
    if crashes is not None and crashes.enabled:
        crash_plan = CrashPlan(crashes, seed=spec.seed, horizon=horizon)
        crash_plan.arm(simulator, installations, store)

    state = RunState(
        scale=scale,
        seed=spec.seed,
        audit=audit,
        horizon=horizon,
        simulator=simulator,
        store=store,
        world=world,
        installations=installations,
        monitor=monitor,
        generator=generator,
        behavior=behavior,
        fault_plan=fault_plan,
        crash_plan=crash_plan,
        scenario=spec.scenario,
    )
    if spec.checkpoint_every is not None:
        if spec.checkpoint_dir is None:
            raise ValueError(
                "checkpoint_every requires checkpoint_dir (where to put "
                "the snapshots)"
            )
        Checkpointer(state, spec.checkpoint_dir, spec.checkpoint_every).arm()
    return state


def _finish_run(
    state: RunState,
    started: float,
    collector: CollectorPause,
    restored_from: Optional[str] = None,
    restore_seconds: float = 0.0,
) -> SimulationResult:
    """Run (or keep running) the clock over the observation window, drain,
    enforce conservation, and package the result. Shared by fresh and
    resumed runs so both finish byte-identically."""
    simulator = state.simulator
    installations = state.installations
    world = state.world
    scale = state.scale

    # Run the observation window one simulated day at a time — exactly
    # one long run, by run()'s half-open ``until`` — settling the
    # collector at each day boundary; then drain in-flight work
    # (challenge retries, scheduled solves, digest actions): recurring
    # jobs stop at the horizon, so the queue empties on its own.
    day_end = (int(simulator.now // DAY) + 1) * DAY
    while day_end < state.horizon:
        simulator.run(until=day_end)
        collector.day_boundary()
        day_end += DAY
    simulator.run(until=state.horizon)
    simulator.run()
    # Safety net for the end-of-horizon leak: force any message still
    # lacking a terminal status to EXPIRED. After the full drain above
    # this finalizes nothing — it exists so the conservation invariant
    # holds even for truncated runs.
    for mta in _unique_mtas(installations):
        mta.drain()
    # Inbound teardown: entries still quarantined at the horizon get their
    # PENDING_AT_HORIZON terminal status and their challenge slots are
    # retired; then the lifecycle verdict is enforced unconditionally.
    for installation in installations.values():
        installation.shutdown()
    ledger_stats = LedgerStats.collect(installations)
    if not ledger_stats.conserved:
        raise LedgerError(
            "message-lifecycle conservation violated:\n  "
            + "\n  ".join(ledger_stats.violations)
        )

    info = DeploymentInfo(
        n_companies=scale.n_companies,
        n_open_relays=scale.open_relays,
        users_per_company={
            company.company_id: company.n_users for company in world.companies
        },
        horizon_days=float(scale.n_days),
        min_cluster_size=scale.min_cluster_size,
        volume_scale=scale.volume_scale,
    )
    if state.checkpointer is not None:
        # Join any in-flight background snapshot writer: every snapshot
        # is complete on disk before the run's results are visible.
        state.checkpointer.finalize()
        checkpoint_stats = state.checkpointer.stats(
            restored_from=restored_from, restore_seconds=restore_seconds
        )
    else:
        checkpoint_stats = CheckpointStats(
            restored_from=restored_from, restore_seconds=restore_seconds
        )
    shard_ctx = getattr(state.generator, "shard", None)
    shard_stats = None
    if shard_ctx is not None:
        exchange = shard_ctx.exchange
        shard_stats = ShardRunInfo(
            index=shard_ctx.index,
            n_shards=shard_ctx.n_shards,
            manifests=dict(exchange.manifests),
            local_rows=exchange.local_rows,
            remote_rows=exchange.remote_rows,
        )
    collector.close()  # the exit collection counts in wall_seconds
    return SimulationResult(
        store=state.store,
        world=world,
        simulator=simulator,
        installations=installations,
        monitor=state.monitor,
        info=info,
        seed=state.seed,
        wall_seconds=time.perf_counter() - started,
        cache_stats=SubstrateCacheStats.collect(world),
        fault_stats=FaultStats.collect(state.fault_plan, installations),
        ledger_stats=ledger_stats,
        crash_stats=CrashStats.collect(state.crash_plan),
        checkpoint_stats=checkpoint_stats,
        memory_stats=MemoryStats.collect(state.store),
        events_processed=simulator.events_processed,
        shard_stats=shard_stats,
        scenario=state.scenario,
    )


def _seed_user_lists(
    installation: CompanyInstallation, company, calibration: Calibration
) -> None:
    """Pre-populate steady-state whitelists (most contacts) and blacklists
    (nuisance senders) — the paper observes mature installations."""
    for user in company.users:
        n_seed = int(len(user.contacts) * calibration.seed_whitelist_share)
        installation.seed_whitelist(user.address, user.contacts[:n_seed])
        installation.seed_blacklist(user.address, user.nuisance_senders)


def _seed_newsletter_whitelists(installations, world, calibration, streams) -> None:
    """Most subscriptions predate the monitoring window, so most
    subscribers already whitelisted their newsletters' sender addresses."""
    rng = streams.stream("newsletter-seed")
    for source in world.newsletter_sources:
        for company_id, subscriber in source.subscribers:
            if rng.random() < calibration.newsletter_seed_prob:
                # .get, not []: a shard worker seeds only its own
                # companies, but the draw above already happened — every
                # shard consumes the identical stream.
                installation = installations.get(company_id)
                if installation is not None:
                    installation.seed_whitelist(
                        subscriber, list(source.senders)
                    )
