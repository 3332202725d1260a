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
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Optional, Union

from repro._version import __version__
from repro.analysis.context import DeploymentInfo
from repro.analysis.persistence import store_digest
from repro.analysis.store import SPILL_CHUNK_ROWS, LogStore, SpillConfig
from repro.blacklistd.monitor import BlacklistMonitor
from repro.core.config import CompanyConfig, FilterChainSpec
from repro.core.engine import CompanyInstallation
from repro.core.ledger import LedgerError, LedgerSnapshot
from repro.core.message import reset_msg_ids
from repro.core.recovery import Checkpointer, RunState, load_checkpoint
from repro.net.crashes import (
    CrashCounters,
    CrashPlan,
    CrashSettings,
    get_crash_preset,
)
from repro.net.faults import (
    FaultCounters,
    FaultPlan,
    FaultSettings,
    get_fault_preset,
)
from repro.sim.engine import Simulator
from repro.util.gcpause import CollectorPause
from repro.util.metrics import MetricsView, flatten
from repro.util.rng import RngStreams
from repro.util.simtime import DAY
from repro.workload.behavior import BehaviorModel
from repro.workload.calibration import Calibration, DEFAULT_CALIBRATION
from repro.workload.entities import World, build_world
from repro.workload.generator import TraceGenerator
from repro.workload.scale import ScaleConfig, get_preset


class SubstrateCacheStats(MetricsView):
    """Hit/miss counters of the simulated-substrate caches after one run:
    a view of the ``cache.*`` metrics."""

    GROUP = "cache"

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
        return cls(collect_metrics(world=world))


class FaultStats(MetricsView):
    """Fault-injection counters plus the delivery-conservation ledger: a
    view of the ``faults.*`` metrics.

    Collected after every run (faults enabled or not): the conservation
    invariant — every message handed to an outbound MTA reached exactly
    one terminal status — is checked unconditionally. ``drained`` counts
    messages force-expired by the end-of-run drain (0 when the event
    queue emptied on its own, which it does for full-horizon runs).
    """

    GROUP = "faults"

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
        return cls(
            collect_metrics(installations=installations, fault_plan=plan)
        )


class LedgerStats(MetricsView):
    """End-of-run verdict of the message-lifecycle ledger: a view of the
    ``ledger.*`` metrics plus the per-company snapshots.

    The inbound mirror of :class:`FaultStats`' delivery conservation:
    every message MTA-IN accepted must sit in exactly one terminal bucket
    (``accepted == delivered + black_dropped + filter_dropped + released
    + deleted + expired + pending_at_horizon``) with nothing left in
    quarantine or ``stranded`` and no pending-challenge slot outliving
    its messages. Enforced per company after every run — a run that
    fails the check raises :class:`LedgerError` with each violation
    instead of returning; ``audit`` records whether the run also
    validated each transition as it happened.
    """

    GROUP = "ledger"

    def __init__(
        self, metrics: dict, per_company: tuple[LedgerSnapshot, ...]
    ) -> None:
        super().__init__(metrics)
        vars(self).update(per_company=per_company)

    @property
    def terminal_total(self) -> int:
        return sum(getattr(self, name) for name in _TERMINAL_BUCKETS)

    @property
    def conserved(self) -> bool:
        return (
            self.accepted == self.terminal_total
            and not self.in_quarantine
            and not self.stranded
            and not self.leaked_challenge_slots
        )


#: The ledger's terminal buckets; with ``accepted``,
#: ``quarantined_total`` and ``in_quarantine`` they are the ``ledger.*``
#: per-company sums.
_TERMINAL_BUCKETS = (
    "delivered",
    "black_dropped",
    "filter_dropped",
    "released",
    "deleted",
    "expired",
    "pending_at_horizon",
)

#: The per-company ledger counters that ``ledger.*`` sums.
LEDGER_COUNTERS = (
    ("accepted", "quarantined_total", "in_quarantine") + _TERMINAL_BUCKETS
)


def ledger_metrics(snapshots) -> dict:
    """The ``ledger.*`` sums of *snapshots*: each of
    :data:`LEDGER_COUNTERS`, and the stranded messages. A run's end and
    the live service's reconciliation both read the ledgers this way."""
    metrics = {
        f"ledger.{name}": sum(getattr(s, name) for s in snapshots)
        for name in LEDGER_COUNTERS
    }
    metrics["ledger.stranded"] = sum(len(s.stranded) for s in snapshots)
    return metrics


def collect_metrics(
    world: Optional[World] = None,
    installations: Optional[dict] = None,
    fault_plan: Optional[FaultPlan] = None,
    state: Optional[RunState] = None,
    ledger: tuple = (),
    restore_seconds: float = 0.0,
) -> dict:
    """The run's metrics map, read once from the counters its resolver,
    DNSBLs, router, MTAs, fault and crash plans, ledgers, checkpointer,
    store and simulator already keep (DESIGN.md "Run metrics").

    The end of a run passes its whole *state* with its ledger snapshots
    (*ledger*) and *restore_seconds*. A *world* alone gives the
    ``cache.*`` group, *installations* (and *fault_plan*) the
    ``faults.*`` group — how the live service reads them.
    """
    if state is not None:
        world = state.world
        installations = state.installations
        fault_plan = state.fault_plan
    metrics: dict = {}
    if world is not None:
        services = world.services.values()
        metrics.update({
            "cache.dns_hits": world.resolver.cache_hits,
            "cache.dns_misses": world.resolver.cache_misses,
            "cache.dnsbl_hits": sum(s.cache_hits for s in services),
            "cache.dnsbl_misses": sum(s.cache_misses for s in services),
            "cache.route_hits": world.internet.route_hits,
            "cache.route_misses": world.internet.route_misses,
        })
    if installations is not None:
        metrics["faults.enabled"] = fault_plan is not None
        metrics.update(flatten("faults", vars(
            fault_plan.counters if fault_plan is not None else FaultCounters()
        )))
        mtas = _unique_mtas(installations)
        metrics["faults.messages_sent"] = sum(m.sent_messages for m in mtas)
        for name in ("retries_scheduled", "delivered", "bounced", "expired",
                     "drained"):
            metrics[f"faults.{name}"] = sum(getattr(m, name) for m in mtas)
    if state is None:
        return metrics

    metrics["ledger.audit"] = state.audit
    metrics.update(ledger_metrics(ledger))
    metrics["ledger.leaked_challenge_slots"] = sum(
        inst.challenge_manager.pending_count for inst in installations.values()
    )

    crash_plan = state.crash_plan
    metrics["crashes.enabled"] = crash_plan is not None
    metrics.update(flatten("crashes", vars(
        crash_plan.counters if crash_plan is not None else CrashCounters()
    )))

    checkpointer = state.checkpointer
    metrics.update({
        "checkpoint.every": checkpointer.every if checkpointer else 0.0,
        "checkpoint.written": checkpointer.written if checkpointer else 0,
        "checkpoint.write_seconds": (
            checkpointer.write_seconds if checkpointer else 0.0
        ),
        "checkpoint.restore_seconds": restore_seconds,
    })

    metrics.update(flatten("planner", state.generator.planner_metrics()))

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    if sys.platform != "darwin":
        rss *= 1024
    store = state.store
    metrics.update({
        "memory.max_rss_bytes": rss,
        "memory.store_live_rows": store.live_rows(),
        "memory.store_live_bytes": store.live_bytes(),
        "memory.store_spilled_bytes": store.spilled_bytes(),
        "sim.events": state.simulator.events_processed,
    })
    return metrics


def _audit_ledgers(installations: dict[str, CompanyInstallation]) -> tuple:
    """``(snapshots, violations)``: every company's ledger snapshot, in
    company-id order, and each way one fails conservation or disagrees
    with the gray spool's and challenge manager's own counters. Call
    after ``shutdown()`` has drained the spools."""
    snapshots = []
    violations = []
    for company_id in sorted(installations):
        inst = installations[company_id]
        snap = inst.ledger.snapshot()
        snapshots.append(snap)
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
            slots = inst.challenge_manager.pending_items()[:5]
            violations.append(
                f"{company_id}: {leaked} pending-challenge slot(s) "
                f"outlived their quarantined messages: {slots}"
            )
    return tuple(snapshots), tuple(violations)


def _unique_mtas(installations: dict[str, CompanyInstallation]) -> list:
    """Each installation's outbound MTAs, deduplicated — non-dual
    installations share one object between user and challenge mail."""
    mtas: dict[int, object] = {}
    for installation in installations.values():
        for mta in (installation.user_mta, installation.challenge_mta):
            mtas[id(mta)] = mta
    return list(mtas.values())


@dataclass
class RunRecord:
    """One run's measurement database and everything read beside it.

    The simulator returns it (as :class:`SimulationResult`), the run
    cache pickles it, and :func:`~repro.analysis.persistence.load_run`
    reads it back from a file; every analysis, ``repro check`` and the
    CLI take it. A loaded record has empty ``metrics`` (files carry the
    store and the info only), and each counter view is then ``None``.
    """

    store: LogStore
    info: DeploymentInfo
    #: Static per-company configuration (company_id -> config), for
    #: config-level analyses such as the dual-MTA ablation.
    company_configs: dict[str, CompanyConfig] = field(default_factory=dict)
    #: ``None`` when the file a record was loaded from did not say.
    seed: Optional[int] = None
    #: The resolved :class:`repro.scenarios.ScenarioSpec` this run
    #: executed, ``None`` for scenario-free runs. The ``verdicts``
    #: experiment evaluates its checks against the store.
    scenario: object = None
    #: Every counter of the run under its dotted name, from
    #: :func:`collect_metrics`; empty for a loaded record.
    metrics: dict = field(default_factory=dict)
    #: Each company's end-of-run ledger snapshot, in company-id order.
    ledger_snapshots: tuple = ()
    #: The snapshot this run resumed from, ``None`` for a fresh run.
    restored_from: Optional[str] = None
    #: ``None`` for a loaded record.
    wall_seconds: Optional[float] = None

    @cached_property
    def digest(self) -> str:
        """:func:`~repro.analysis.persistence.store_digest` of the store,
        computed on first read and then pickled with the record."""
        return store_digest(self.store)

    @property
    def events_processed(self) -> Optional[int]:
        """Engine event count."""
        return self.metrics["sim.events"] if self.metrics else None

    @property
    def cache_stats(self) -> Optional[SubstrateCacheStats]:
        return SubstrateCacheStats(self.metrics) if self.metrics else None

    @property
    def fault_stats(self) -> Optional[FaultStats]:
        return FaultStats(self.metrics) if self.metrics else None

    @property
    def ledger_stats(self) -> Optional[LedgerStats]:
        if not self.metrics:
            return None
        return LedgerStats(self.metrics, self.ledger_snapshots)


@dataclass
class SimulationResult(RunRecord):
    """A finished run's record plus the live objects that produced it,
    which never leave the process: :meth:`record` is what crosses."""

    # Defaulted only because they follow the record's defaulted fields;
    # :func:`simulate` always sets them.
    world: World = None
    simulator: Simulator = None
    installations: dict[str, CompanyInstallation] = None
    monitor: BlacklistMonitor = None

    def record(self) -> RunRecord:
        """The plain, picklable record, with the store's analysis index
        dropped so the pickle carries records only."""
        self.store.drop_indices()
        return RunRecord(
            **{f.name: getattr(self, f.name) for f in fields(RunRecord)}
        )


#: :class:`RunSpec` fields that never change what a run measures: its
#: display name and where its files go. Every other field is part of
#: :meth:`RunSpec.cache_key`.
NON_KEY_FIELDS = frozenset(
    {"label", "checkpoint_dir", "resume_from", "spill_dir",
     "spill_chunk_rows"}
)


@dataclass(frozen=True)
class RunSpec:
    """Every input of one simulated run, frozen.

    ``run_simulation``, the sweep runner and the CLI all take their
    inputs from this one declaration. Attacks come only from
    ``scenario``; the filter chain only from ``chain``.

    Fields that change the run are part of :meth:`cache_key` — even
    ``audit``, ``checkpoint_every`` and ``batch_delivery``, whose output
    is byte-identical: a request to exercise that machinery must
    actually run it, not be answered from the cache. The fields in
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
    #: Continuous lifecycle auditing (:mod:`repro.core.ledger`). The
    #: end-of-run conservation verdict is enforced either way.
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
    checkpoint_dir: Optional[str] = None
    #: Restore this snapshot and continue the run; every build-time field
    #: is then taken from the snapshot.
    resume_from: Optional[str] = None
    #: Stream full chunks of ``spill_chunk_rows`` records to chunk
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
    **spec_fields,
) -> SimulationResult:
    """Simulate ``RunSpec(preset, seed, **spec_fields)``; see
    :class:`RunSpec` for every field."""
    return simulate(RunSpec(preset, seed, **spec_fields))


def simulate(spec: RunSpec) -> SimulationResult:
    """Run one deployment as *spec* declares it.

    A fresh run builds the world, installs the product at every company,
    arms the probe monitor, the trace generator, the scenario's attacks
    and any fault/crash plans, then runs the clock (see
    :func:`_finish_run`). ``resume_from`` instead restores a snapshot and
    continues it; the store is byte-identical to the uninterrupted run's.
    """
    started = time.perf_counter()
    # Entered before the world build so fresh and resumed runs both
    # build, run and tear down with the collector paused.
    with CollectorPause() as collector:
        resume_from = spec.resume_from
        if resume_from is None:
            return _finish_run(_build_run(spec), started, collector)
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


def _build_run(spec: RunSpec) -> RunState:
    """A fresh run's world, installations, monitor, generator, attacks
    and fault/crash plans, with the clock not yet started."""
    spec = spec.resolved()
    faults, crashes = spec.faults, spec.crashes
    if isinstance(faults, str):
        faults = get_fault_preset(faults)
    if isinstance(crashes, str):
        crashes = get_crash_preset(crashes)
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

    horizon = scale.n_days * DAY
    fault_plan = None
    if faults is not None and faults.enabled:
        fault_plan = FaultPlan(
            faults, seed=spec.seed, horizon=horizon, clock=simulator
        )
        world.install_fault_plan(fault_plan)
    installations: dict[str, CompanyInstallation] = {}
    for company in world.companies:
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
            audit=spec.audit,
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
        batch_delivery=spec.batch_delivery,
    )
    generator.start(scale.n_days)
    for attack in attacks:
        attack.install(
            world, simulator, installations, streams, behavior=behavior
        )

    crash_plan = None
    if crashes is not None and crashes.enabled:
        crash_plan = CrashPlan(crashes, seed=spec.seed, horizon=horizon)
        crash_plan.arm(simulator, installations, store)

    state = RunState(
        scale=scale,
        seed=spec.seed,
        audit=spec.audit,
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

    # A forked planner draws each day ahead of the engine unless the run
    # itself rules it out: attacks lease IPs at event time between
    # campaign spawns, and a snapshot must hold its own day's generator
    # state.
    attacks = state.scenario is not None and state.scenario.attacks
    plan_ahead = not attacks and state.checkpointer is None
    with state.generator.planning_ahead(plan_ahead):
        # Run the observation window one simulated day at a time —
        # exactly one long run, by run()'s half-open ``until`` —
        # settling the collector at each day boundary; then drain
        # in-flight work (challenge retries, scheduled solves, digest
        # actions): recurring jobs stop at the horizon, so the queue
        # empties on its own.
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
    ledger, violations = _audit_ledgers(installations)
    if violations:
        raise LedgerError(
            "message-lifecycle conservation violated:\n  "
            + "\n  ".join(violations)
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
    collector.close()  # the exit collection counts in wall_seconds
    return SimulationResult(
        store=state.store,
        info=info,
        company_configs={
            company_id: installation.config
            for company_id, installation in installations.items()
        },
        seed=state.seed,
        scenario=state.scenario,
        wall_seconds=time.perf_counter() - started,
        metrics=collect_metrics(
            state=state, ledger=ledger, restore_seconds=restore_seconds
        ),
        ledger_snapshots=ledger,
        restored_from=restored_from,
        world=world,
        simulator=simulator,
        installations=installations,
        monitor=state.monitor,
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
                installations[company_id].seed_whitelist(
                    subscriber, list(source.senders)
                )
