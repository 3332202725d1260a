"""The simulator workloads: ``sim-bench`` and ``sim-sharded``.

One run is one full ``bench`` deployment (47 companies, 42 days, the
default chain, no faults) followed by ``run_all``. ``sim-sharded`` runs
it at ``shards=2, shard_jobs=2``. The shard workers are forked by the
program's own pool, so the clock probe and the span wrappers installed
here before the run are inherited by them; each worker writes what it
measured to a file that this process reads back.

Throughput is MTA-IN records per reference second (``hostspeed``) while
the clock runs. The clock is cut into segments of
:data:`PROBE_EVERY_DAYS` simulated days by host-speed probes at those
days' planning events and at the clock's end; each worker's clock is the
sum of its normalised segments, and sharded, the slowest worker's clock
counts. Set-up times are divided by the mean of probes around them.

The correctness gate runs after the timed region: the ledger and the
delivery ledger must conserve, the report must render, and the store's
``store_digest`` must equal the digest pinned for the seed in
``digests.json`` (pinned from unsharded runs, so ``sim-sharded`` is held
to ``sim-bench``'s store). A seed without a pinned digest runs every
other check and says so.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from typing import Optional

import layers
from hostspeed import reference_seconds, slowness
from spans import Tracer

PRESET = "bench"
SHARDS = 2
#: Set-up-only repetitions per run; ``setup_s`` is the median of these
#: and the measured run's own set-up.
SETUP_REPS = 4
#: Simulated days between host-speed probes (6 probes in a 42-day run).
PROBE_EVERY_DAYS = 7
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "digests.json")


class SetupReached(Exception):
    """Raised at the first clock run of a set-up-only repetition."""


class ClockProbe:
    """When the simulator clock first runs and last returns, and
    host-speed marks along it."""

    def __init__(self, host) -> None:
        #: Returns the host's slowness (a traced run's keeps its time in
        #: a span of its own, out of the layers' self times).
        self.host = host
        self.reset()

    def reset(self, stop: bool = False) -> None:
        self.first: Optional[float] = None
        self.last: Optional[float] = None
        #: ``[(probe start, probe end, MTA-IN records so far, slowness)]``.
        self.marks: list = []
        self.stop = stop

    def mark(self, records: int) -> None:
        began = time.perf_counter()
        host = self.host()
        self.marks.append((began, time.perf_counter(), records, host))

    def segments(self, records: int) -> list:
        """Close the marks at the clock's end; ``[(seconds, slowness
        before, slowness after)]`` between consecutive marks."""
        self.mark(records)
        marks = self.marks
        return [(b[0] - a[1], a[3], b[3]) for a, b in zip(marks, marks[1:])]

    def install(self) -> None:
        from repro.sim.engine import Simulator
        from repro.workload.generator import TraceGenerator

        run, plan_day = Simulator.run, TraceGenerator._plan_day
        probe = self

        def probed_run(simulator, until=None):
            if probe.first is None:
                probe.first = time.perf_counter()
                if probe.stop:
                    raise SetupReached()
            try:
                return run(simulator, until)
            finally:
                probe.last = time.perf_counter()

        def probed_plan_day(generator, day):
            if day % PROBE_EVERY_DAYS == 0:
                store = next(iter(generator.installations.values())).store
                probe.mark(len(store.mta))
            return plan_day(generator, day)

        Simulator.run = probed_run
        TraceGenerator._plan_day = probed_plan_day


def _traced_slowness(tracer: Tracer):
    def host() -> float:
        frame = tracer.enter("bench.hostspeed")
        try:
            return slowness()
        finally:
            tracer.exit(frame)

    return host


def tally(checks: list) -> tuple:
    """``(attempted, failed)``: each check is one operation."""
    return len(checks), sum(not ok for _name, ok in checks)


def pinned_digest(seed: int) -> Optional[str]:
    with open(DIGESTS) as fh:
        return json.load(fh).get(str(seed))


def gate(result, report: str, seed: int) -> list:
    """``[(check, passed)]`` for one finished run."""
    from repro.experiments.parallel import store_digest

    checks = [
        ("ledger_conserved", result.ledger_stats.conserved),
        ("delivery_conserved", result.fault_stats.conserved),
        ("report_rendered", bool(report)),
    ]
    expected = pinned_digest(seed)
    if expected is None:
        print(f"note: no pinned digest for seed {seed}; store_digest unchecked")
    else:
        checks.append(("store_digest", store_digest(result.store) == expected))
    return checks


def _own_peak_rss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class SimWorkload:
    """One process's instrumentation plus the runs that use it."""

    def __init__(self, sharded: bool, out_dir: str,
                 tracer: Optional[Tracer] = None) -> None:
        from repro.experiments import runner, sharded as sharded_module

        self.sharded = sharded
        self.out_dir = out_dir
        self.tracer = tracer
        self.probe = ClockProbe(slowness if tracer is None
                                else _traced_slowness(tracer))
        self.probe.install()
        if tracer is not None:
            layers.install(tracer, runner)
            layers.install_analysis(tracer)
        if sharded:
            sharded_module.run_simulation = self._shard_hook(
                sharded_module.run_simulation)

    def _shard_file(self, index: int) -> str:
        return os.path.join(self.out_dir, f"shard-{index}.json")

    def _shard_hook(self, run_simulation):
        """Wrap the shard worker's ``run_simulation`` call: it runs in the
        forked worker, so it resets the inherited probe and tracer and
        writes what they saw for the parent."""
        probe, tracer = self.probe, self.tracer

        def run_shard(*args, shard_of, **kwargs):
            probe.reset(probe.stop)
            if tracer is not None:
                tracer.reset()
            started = time.perf_counter()
            segments = None
            try:
                result = run_simulation(*args, shard_of=shard_of, **kwargs)
                segments = probe.segments(len(result.store.mta))
                return result
            finally:
                with open(self._shard_file(shard_of[0]), "w") as fh:
                    json.dump({
                        "started": started,
                        "ended": time.perf_counter(),
                        "first": probe.first,
                        "segments": segments,
                        "tracer": tracer.state() if tracer else None,
                    }, fh)

        return run_shard

    def _shard_reports(self) -> list:
        reports = []
        for index in range(SHARDS):
            with open(self._shard_file(index)) as fh:
                reports.append(json.load(fh))
        return reports

    def _kwargs(self) -> dict:
        return {"shards": SHARDS, "shard_jobs": SHARDS} if self.sharded else {}

    def _clear(self) -> None:
        for index in range(SHARDS):
            if os.path.exists(self._shard_file(index)):
                os.remove(self._shard_file(index))

    def setup_once(self, seed: int) -> float:
        """Seconds from the ``run_simulation`` call until the clock first
        runs (the latest worker's, sharded); the run stops there."""
        from repro.experiments.runner import run_simulation

        self._clear()
        self.probe.reset(stop=True)
        started = time.perf_counter()
        try:
            run_simulation(PRESET, seed, **self._kwargs())
        except SetupReached:
            pass
        else:
            raise RuntimeError("the simulator clock never ran")
        if self.sharded:
            first = max(r["first"] for r in self._shard_reports())
        else:
            first = self.probe.first
        self.probe.reset()
        return first - started

    def run(self, seed: int) -> dict:
        """One measured run plus its gate; returns the raw measurements."""
        from repro.analysis.store import TABLES
        from repro.experiments import registry
        from repro.experiments.runner import run_simulation

        self._clear()
        self.probe.reset()
        before = slowness()
        started = time.perf_counter()
        result = run_simulation(PRESET, seed, **self._kwargs())
        returned = time.perf_counter()
        records = len(result.store.mta)
        if not self.sharded:  # the last probe falls inside the traced window
            segments = self.probe.segments(records)
        report = registry.run_all(result)
        ended = time.perf_counter()
        facts = {
            "msgs": records,
            "events": result.events_processed,
            "cache": result.cache_stats.__dict__,
            "mta_sent": result.fault_stats.messages_sent,
            "mta_delivered": result.fault_stats.delivered,
            "store_rows": sum(len(getattr(result.store, table))
                              for table in TABLES),
            "wall": ended - started,
        }
        if self.sharded:
            shards = self._shard_reports()
            latest = max(shards, key=lambda r: r["first"])
            first, after = latest["first"], latest["segments"][0][1]
            workers = [r["segments"] for r in shards]
            per_shard = result.shard_stats.per_shard
            facts["shard_walls"] = [p.wall_seconds for p in per_shard]
            facts["run_wall"] = result.wall_seconds
            facts["exchange_rows"] = result.shard_stats.exchange_rows
            facts["peak_rss_bytes"] = (
                _own_peak_rss() + sum(p.max_rss_bytes for p in per_shard))
            # Every process's traced window: the workers' runs, plus this
            # process's wall outside the span in which the workers ran.
            pool_span = (max(r["ended"] for r in shards)
                         - min(r["started"] for r in shards))
            facts["window_s"] = (
                facts["wall"] - pool_span
                + sum(r["ended"] - r["started"] for r in shards))
            if self.tracer is not None:
                for r in shards:
                    self.tracer.merge_state(r["tracer"])
        else:
            first, after = self.probe.first, self.probe.marks[0][3]
            workers = [segments]
            facts["shard_walls"] = [result.wall_seconds]
            facts["run_wall"] = returned - started
            facts["peak_rss_bytes"] = _own_peak_rss()
            facts["window_s"] = facts["wall"]
        facts["setup"] = (first - started) / ((before + after) / 2)
        facts["throughput"] = records / max(map(reference_seconds, workers))
        facts["throughput_raw"] = records / max(
            sum(seconds for seconds, _a, _b in segments) for segments in workers)
        facts["checks"] = gate(result, report, seed)
        del result, report
        gc.collect()
        return facts


def measure(workload: str, seed: int, out_dir: str,
            tracer: Optional[Tracer] = None) -> dict:
    """One benchmark run of a ``sim-*`` workload: set-up repetitions
    (untraced runs only), then the measured run."""
    bench = SimWorkload(workload == "sim-sharded", out_dir, tracer)
    setups = []
    if tracer is None:
        before = slowness()
        setups = [bench.setup_once(seed) for _ in range(SETUP_REPS)]
        speed = (before + slowness()) / 2
        setups = [setup / speed for setup in setups]
    facts = bench.run(seed)
    setups.append(facts["setup"])
    facts["setup_s"] = statistics.median(setups)
    facts["units"] = facts["msgs"]
    facts["attempted"], facts["failed"] = tally(facts["checks"])
    return facts
