"""The benchmark's workloads and metrics, in one place.

``python3 perfbench/spec.py`` writes ``BENCHMARK.json`` at the repository
root from these tables, so the runner and the file cannot disagree on a
metric's name or unit.

End-to-end metrics are reported by every workload, each with the
workload's own reading of it. Times are in reference seconds of
``hostspeed.py``; every untraced run also prints the raw throughput.

* ``setup_s`` -- ``sim-*``: ``run_simulation`` call until the simulator
  clock first runs (latest shard worker for ``sim-sharded``);
  ``live-ingest``: server launch until its endpoints file appears;
  ``live-recover``: ``LiveCrService`` construction. Median of several
  set-ups in one run.
* ``throughput_per_s`` -- units of work per second: ``sim-*``: MTA-IN
  records while the clock runs (``msgs_per_s``); ``live-ingest``: acked
  messages in the overload phase (``capacity_msgs_per_s``), the median
  of several bursts; ``live-recover``: WAL records replayed
  (``replay_records_per_s``), the median of several recoveries.
* ``peak_rss_kb_per_unit`` -- peak RSS of the process tree (the sum of
  each process's own peak, an upper bound on the simultaneous peak) per
  unit of work. A seed's deployment size sets the ``sim-*`` store size,
  so the raw peak (printed as ``peak_rss_mb``) moves with the seed.

``wall_s`` (host-speed probes included) and the live accept latencies
are printed by every untraced run but carry no bound: a ``sim-*`` wall
moves with the seed's deployment size, and the steady phase's p99 moved
from 8 to 15 ms between two runs of the same code.
"""

from __future__ import annotations

import json
import os
import sys

WORKLOADS = [
    ("sim-bench",
     "the 47-company bench deployment and run_all: generator, MTA-IN, "
     "dispatcher, filters, outbound MTA, store and analysis in one process"),
    ("sim-sharded",
     "the same deployment at shards=2, shard_jobs=2: adds exchange and "
     "merge, replays the generator per shard; its store must equal "
     "sim-bench's"),
    ("live-ingest",
     "repro serve (small, hybrid chain) under sstress on 2 connections: the "
     "only user of SMTP parsing, the admission queue and WAL fsync"),
    ("live-recover",
     "LiveCrService recovery of a seeded mail-only WAL in a fresh process: "
     "WAL decode and engine apply with no sockets and no fsync"),
]

#: Runnable, but left out of ``BENCHMARK.json``: over ten seeds its
#: throughput's quartile spread was 0.26 even normalised (raw 0.33), past
#: the largest bound a benchmark may set (0.25). ``spread.py`` still runs
#: it for the measured shards=2 speedup, and its traced run gives the
#: ``shard.*`` and ``exchange.rows`` layers.
NOT_IN_BENCHMARK = ("sim-sharded",)

#: ``(name, unit, better, bound)``.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_kb_per_unit", "KB", "lower", 0.1),
]

FILTERS = ("antivirus", "reverse_dns", "rbl", "spf", "content", "reputation")

#: ``analysis.<exp_id>_s`` ids; must match ``CANONICAL_ORDER`` (the
#: runner checks).
EXPERIMENT_IDS = (
    "tab_drop", "fig1", "fig3", "tab1", "tab1_daily", "fig4a", "sec31",
    "fig5", "fig6", "fig7", "fig9", "fig11", "fig12", "sec6", "faults",
    "audit", "recovery", "verdicts",
)

#: ``(name, unit, better)``. A layer a workload does not run reads 0.
PER_LAYER = (
    [
        ("world.build_s", "s", "lower"),
        ("engine.install_s", "s", "lower"),
        ("generator.plan_s", "s", "lower"),
        ("generator.rows", "count", "higher"),
        ("generator.local_share", "ratio", "higher"),
        ("sim.events", "count", "higher"),
        ("sim.loop_self_s", "s", "lower"),
        ("mta_in.precheck_s", "s", "lower"),
        ("mta_in.check_s", "s", "lower"),
        ("mta_in.accept_ratio", "ratio", "higher"),
        ("engine.inbound_self_s", "s", "lower"),
        ("dispatcher.process_self_s", "s", "lower"),
        ("dispatcher.gray_share", "ratio", "lower"),
    ]
    + [(f"filter.{f}.s", "s", "lower") for f in FILTERS]
    + [(f"filter.{f}.drop_ratio", "ratio", "higher") for f in FILTERS]
    + [
        ("mta_out.send_s", "s", "lower"),
        ("mta_out.sent", "count", "higher"),
        ("mta_out.delivered_ratio", "ratio", "higher"),
        ("challenge.issued", "count", "higher"),
        ("dns.hit_ratio", "ratio", "higher"),
        ("dnsbl.hit_ratio", "ratio", "higher"),
        ("route.hit_ratio", "ratio", "higher"),
        ("store.append_s", "s", "lower"),
        ("store.rows", "count", "higher"),
        ("analysis.report_s", "s", "lower"),
    ]
    + [(f"analysis.{e}_s", "s", "lower") for e in EXPERIMENT_IDS]
    + [
        ("shard.0.wall_s", "s", "lower"),
        ("shard.1.wall_s", "s", "lower"),
        ("shard.wall_max_s", "s", "lower"),
        ("shard.skew", "ratio", "lower"),
        ("shard.merge_s", "s", "lower"),
        ("exchange.rows", "count", "higher"),
        ("smtp.session_self_s", "s", "lower"),
        ("admission.queue_wait_p50_ms", "ms", "lower"),
        ("admission.queue_wait_p99_ms", "ms", "lower"),
        ("admission.queue_wait_samples", "count", "higher"),
        ("admission.batch_records", "count", "higher"),
        ("admission.shed_max", "count", "lower"),
        ("admission.refused", "count", "lower"),
        ("wal.append_s", "s", "lower"),
        ("wal.fsync_s", "s", "lower"),
        ("wal.bytes", "bytes", "lower"),
        ("engine.apply_s", "s", "lower"),
        ("recover.wal_open_s", "s", "lower"),
        ("recover.apply_s", "s", "lower"),
        ("recover.reconcile_s", "s", "lower"),
        ("recover.records", "count", "higher"),
        ("sstress.loop_lag_p50_ms", "ms", "lower"),
        ("sstress.loop_lag_max_ms", "ms", "lower"),
        # Untraced accept latency of the steady phase, from the same
        # invocation's untraced pass: tracked here, without a bound.
        ("ingest.accept_p50_ms", "ms", "lower"),
        ("ingest.accept_p99_ms", "ms", "lower"),
        ("ingest.accept_samples", "count", "higher"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.unattributed_frac", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)

RUN_SECONDS = 15


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS
                      if n not in NOT_IN_BENCHMARK],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
