"""Layer spans for the traced runs, and the per-layer metrics they give.

:func:`install` wraps the program's layer entry points with tracer
spans: its public functions, plus the generator's day planner and
dispatch step, the SMTP session coroutine and the live engine's apply
step, which have no public name. It runs in the
process that does the work: the benchmark itself, each forked shard
worker, or the server and recovery children. :func:`per_layer` turns a
tracer and a few facts read from the program's own results into the
named metrics of ``spec.py``.
"""

from __future__ import annotations

import functools

from spec import EXPERIMENT_IDS, FILTERS, PER_LAYER
from stats import min_samples, percentile
from spans import Tracer, traced_coroutine, wrap_method


def _wrap_by_parent(tracer: Tracer, owner, attr: str, parent: str,
                    inside: str, outside: str) -> None:
    """Like :func:`wrap_method`, but the span is named *inside* when the
    innermost open span is *parent* and *outside* otherwise."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(inside if tracer.current() == parent else outside)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.exit(frame)

    setattr(owner, attr, wrapper)


def _count_generator_rows(tracer: Tracer) -> None:
    """Rows drawn per planned day versus rows this process materialised
    (all of them unsharded, only the owned companies' in a shard)."""
    from repro.workload.generator import TraceGenerator

    original = TraceGenerator._dispatch_day

    @functools.wraps(original)
    def dispatch_day(self, batch, day):
        drawn = len(batch.rows)
        before = self.messages_generated
        original(self, batch, day)
        tracer.count("generator.rows_drawn", drawn)
        tracer.count("generator.rows", self.messages_generated - before)

    TraceGenerator._dispatch_day = dispatch_day


def install(tracer: Tracer, build_world_owner) -> None:
    """Wrap the engine-side layers shared by the simulator and the live
    service. *build_world_owner* is the module whose ``build_world`` the
    caller's entry point uses (the runner or the live service)."""
    from repro.analysis.store import LogStore
    from repro.core.challenge import ChallengeManager
    from repro.core.dispatcher import Dispatcher
    from repro.core.engine import CompanyInstallation
    from repro.core.filters.antivirus import AntivirusFilter
    from repro.core.filters.content import OnlineNaiveBayesFilter
    from repro.core.filters.rbl import RblFilter
    from repro.core.filters.reputation import SenderReputationFilter
    from repro.core.filters.reverse_dns import ReverseDnsFilter
    from repro.core.filters.spf import SpfFilter
    from repro.core.mta_in import MtaIn
    from repro.core.spools import Category
    from repro.net.mta_out import OutboundMta
    from repro.sim.engine import Simulator
    from repro.workload.generator import TraceGenerator

    wrap_method(tracer, build_world_owner, "build_world", "world.build")
    wrap_method(tracer, CompanyInstallation, "__init__", "engine.install")
    for attr in ("seed_whitelist", "seed_blacklist"):
        wrap_method(tracer, CompanyInstallation, attr, "engine.seed_lists")
    wrap_method(tracer, TraceGenerator, "_plan_day", "generator.plan_day")
    _count_generator_rows(tracer)
    wrap_method(tracer, Simulator, "run", "sim.run")
    wrap_method(tracer, MtaIn, "precheck_batch", "mta_in.precheck")
    wrap_method(tracer, MtaIn, "check", "mta_in.check",
                hit=lambda reason: reason is None)
    wrap_method(tracer, CompanyInstallation, "handle_inbound", "engine.inbound")
    wrap_method(tracer, Dispatcher, "process", "dispatcher.process",
                hit=lambda decision: decision.category is Category.GRAY)
    filters = (AntivirusFilter, ReverseDnsFilter, RblFilter, SpfFilter,
               OnlineNaiveBayesFilter, SenderReputationFilter)
    if tuple(cls.name for cls in filters) != FILTERS:
        raise RuntimeError("spec.FILTERS is out of date with the filters")
    for cls in filters:
        wrap_method(tracer, cls, "should_drop", f"filter.{cls.name}", hit=bool)
    wrap_method(tracer, OutboundMta, "send", "mta_out.send")
    wrap_method(tracer, ChallengeManager, "issue", "challenge.issue",
                hit=lambda issued: issued[1])
    for attr in sorted(vars(LogStore)):
        if attr.startswith("add_"):
            wrap_method(tracer, LogStore, attr, "store.append")


def install_analysis(tracer: Tracer) -> None:
    """Wrap ``run_all`` and each experiment renderer it calls."""
    from repro.experiments import registry

    if tuple(registry.CANONICAL_ORDER) != EXPERIMENT_IDS:
        raise RuntimeError("spec.EXPERIMENT_IDS is out of date with "
                           "registry.CANONICAL_ORDER")
    wrap_method(tracer, registry, "run_all", "analysis.report")
    for exp_id in EXPERIMENT_IDS:
        original = registry.EXPERIMENTS[exp_id]

        def renderer(result, _original=original, _name=f"analysis.{exp_id}"):
            frame = tracer.enter(_name)
            try:
                return _original(result)
            finally:
                tracer.exit(frame)

        registry.EXPERIMENTS[exp_id] = renderer


def install_live(tracer: Tracer, waits_ms: list) -> None:
    """Wrap the live path: SMTP sessions, admission, WAL, apply, recovery.

    *waits_ms* receives one admission-queue wait per journaled record:
    the time from ``try_submit`` to the ``WriteAheadLog.append`` of the
    same record object.
    """
    from repro.serve import service as service_module
    from repro.serve.service import LiveCrService
    from repro.serve.smtp_server import SmtpFrontend
    from repro.serve.wal import WriteAheadLog

    install(tracer, service_module)
    clock = tracer.clock
    submitted: dict = {}

    session = SmtpFrontend._session

    def traced_session(self, reader, writer):
        return traced_coroutine(tracer, "smtp.session",
                                session(self, reader, writer))

    SmtpFrontend._session = traced_session

    try_submit = LiveCrService.try_submit

    def timed_submit(self, record):
        future = try_submit(self, record)
        if future is not None:
            submitted[id(record)] = clock()
        return future

    LiveCrService.try_submit = timed_submit
    wrap_method(tracer, LiveCrService, "try_submit", "admission.submit")

    append = WriteAheadLog.append

    def timed_append(self, record):
        since = submitted.pop(id(record), None)
        if since is not None:
            waits_ms.append((clock() - since) * 1000.0)
        return append(self, record)

    WriteAheadLog.append = timed_append
    wrap_method(tracer, WriteAheadLog, "append", "wal.append")
    wrap_method(tracer, WriteAheadLog, "flush", "wal.fsync")
    wrap_method(tracer, WriteAheadLog, "open", "recover.wal_open")
    wrap_method(tracer, LiveCrService, "recover", "recover")
    _wrap_by_parent(tracer, LiveCrService, "_apply", "recover",
                    "recover.apply", "engine.apply")
    _wrap_by_parent(tracer, LiveCrService, "reconcile", "recover",
                    "recover.reconcile", "service.reconcile")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def tail_ms(values: list, q: float) -> float:
    """The *q* percentile of *values*, or 0 when too few were observed to
    report it (see :mod:`stats`)."""
    return percentile(values, q) if len(values) >= min_samples(q) else 0.0


def per_layer(tracer: Tracer, facts: dict) -> dict:
    """Every ``spec.PER_LAYER`` metric as ``{name: value}``.

    *facts* holds what the tracer cannot see: counters the program keeps
    itself (``events``, ``cache``, ``mta_sent``, ...), per-shard walls,
    the traced window and the untraced comparison. Missing facts read 0,
    as does every layer the workload does not run.
    """
    t = tracer
    get = facts.get
    values = {
        "world.build_s": t.inclusive("world.build"),
        "engine.install_s": (t.inclusive("engine.install")
                             + t.inclusive("engine.seed_lists")),
        "generator.plan_s": t.self_time("generator.plan_day"),
        "generator.rows": t.counts.get("generator.rows", 0),
        "generator.local_share": _ratio(t.counts.get("generator.rows", 0),
                                        t.counts.get("generator.rows_drawn", 0)),
        "sim.events": get("events", 0),
        "sim.loop_self_s": t.self_time("sim.run"),
        "mta_in.precheck_s": t.inclusive("mta_in.precheck"),
        "mta_in.check_s": t.inclusive("mta_in.check"),
        "mta_in.accept_ratio": _ratio(t.hits("mta_in.check"),
                                      t.calls("mta_in.check")),
        "engine.inbound_self_s": t.self_time("engine.inbound"),
        "dispatcher.process_self_s": t.self_time("dispatcher.process"),
        "dispatcher.gray_share": _ratio(t.hits("dispatcher.process"),
                                        t.calls("dispatcher.process")),
        "mta_out.send_s": t.inclusive("mta_out.send"),
        "mta_out.sent": get("mta_sent", 0),
        "mta_out.delivered_ratio": _ratio(get("mta_delivered", 0),
                                          get("mta_sent", 0)),
        "challenge.issued": t.hits("challenge.issue"),
        "store.append_s": t.inclusive("store.append"),
        "store.rows": get("store_rows", 0),
        "analysis.report_s": t.inclusive("analysis.report"),
        "exchange.rows": get("exchange_rows", 0),
        "smtp.session_self_s": t.self_time("smtp.session"),
        "wal.append_s": t.inclusive("wal.append"),
        "wal.fsync_s": t.inclusive("wal.fsync"),
        "wal.bytes": get("wal_bytes", 0),
        "engine.apply_s": (t.inclusive("engine.apply")
                           + t.inclusive("recover.apply")),
        "recover.wal_open_s": t.inclusive("recover.wal_open"),
        "recover.apply_s": t.inclusive("recover.apply"),
        "recover.reconcile_s": t.inclusive("recover.reconcile"),
        "recover.records": get("recover_records", 0),
        "trace.overhead_s": get("overhead_s", 0.0),
        "trace.overhead_frac": get("overhead_frac", 0.0),
        "trace.spans": sum(agg[0] for agg in t.agg.values()),
    }
    for name in FILTERS:
        span = f"filter.{name}"
        values[f"{span}.s"] = t.inclusive(span)
        values[f"{span}.drop_ratio"] = _ratio(t.hits(span), t.calls(span))
    for exp_id in EXPERIMENT_IDS:
        values[f"analysis.{exp_id}_s"] = t.inclusive(f"analysis.{exp_id}")
    cache = get("cache", {})  # SubstrateCacheStats fields
    for layer in ("dns", "dnsbl", "route"):
        hits = cache.get(f"{layer}_hits", 0)
        values[f"{layer}.hit_ratio"] = _ratio(
            hits, hits + cache.get(f"{layer}_misses", 0))

    walls = list(get("shard_walls", ()))
    for i in range(2):
        values[f"shard.{i}.wall_s"] = walls[i] if i < len(walls) else 0.0
    wall_max = max(walls, default=0.0)
    values["shard.wall_max_s"] = wall_max
    values["shard.skew"] = _ratio(wall_max, sum(walls) / len(walls)) if walls else 0.0
    values["shard.merge_s"] = get("run_wall", 0.0) - wall_max if walls else 0.0

    waits = list(get("waits_ms", ()))
    values["admission.queue_wait_p50_ms"] = tail_ms(waits, 0.50)
    values["admission.queue_wait_p99_ms"] = tail_ms(waits, 0.99)
    values["admission.queue_wait_samples"] = len(waits)
    values["admission.batch_records"] = _ratio(get("fsync_records", 0),
                                               get("fsync_batches", 0))
    values["admission.shed_max"] = get("shed_max", 0)
    values["admission.refused"] = get("refused", 0)
    lag = list(get("loop_lag_ms", ()))
    values["sstress.loop_lag_p50_ms"] = tail_ms(lag, 0.50)
    values["sstress.loop_lag_max_ms"] = max(lag, default=0.0)
    for name in ("accept_p50_ms", "accept_p99_ms", "accept_samples"):
        values[f"ingest.{name}"] = get(name, 0)

    window = get("window_s", 0.0)
    values["trace.unattributed_s"] = window - t.total_self()
    values["trace.unattributed_frac"] = _ratio(values["trace.unattributed_s"],
                                               window)
    missing = {name for name, _u, _b in PER_LAYER} ^ set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step with spec: {missing}")
    return values
