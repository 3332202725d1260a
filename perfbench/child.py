"""Fresh-process entry points for the live workloads.

    python3 perfbench/child.py serve SEED WAL ENDPOINTS TIME_SCALE [TRACE_OUT]
    python3 perfbench/child.py recover SEED WAL REPS [TRACE_OUT]

``serve`` runs ``repro serve``'s :func:`serve_forever` until SIGTERM; its
shutdown report goes to stdout as the daemon prints it. ``recover`` REPS
times constructs a fresh ``LiveCrService`` and recovers the WAL with it,
timing both, with a host-speed probe between recoveries, and prints one
JSON line. With TRACE_OUT the layers are
wrapped with spans and the tracer's state is written there at the end.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import resource
import selectors
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
from hostspeed import slowness  # noqa: E402
from spans import Tracer  # noqa: E402

PRESET = "small"


def _facts(service) -> dict:
    """Counters the live service keeps itself, for the per-layer metrics."""
    from repro.analysis.store import TABLES
    from repro.experiments.runner import FaultStats, SubstrateCacheStats

    delivery = FaultStats.collect(None, service.installations)
    return {
        "events": service.simulator.events_processed,
        "cache": SubstrateCacheStats.collect(service.world).__dict__,
        "mta_sent": delivery.messages_sent,
        "mta_delivered": delivery.delivered,
        "store_rows": sum(len(getattr(service.store, t)) for t in TABLES),
        "recover_records": service.last_reconciliation.get("applied", 0),
    }


def _write_trace(path: str, tracer: Tracer, window: float, facts: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"tracer": tracer.state(), "window_s": window,
                   "facts": facts}, fh)


def serve(seed: int, wal: str, endpoints: str, time_scale: float,
          trace_out: str = "") -> int:
    from repro.serve import daemon

    tracer = Tracer()
    waits: list = []
    services: list = []
    if trace_out:
        layers.install_live(tracer, waits)

        class Recorded(daemon.LiveCrService):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                services.append(self)

        daemon.LiveCrService = Recorded

    class TimedSelector(selectors.DefaultSelector):
        """The loop's idle wait is a span too, so the unattributed part
        of the server's wall is event-loop overhead, not idleness."""

        def select(self, timeout=None):
            frame = tracer.enter("loop.select")
            try:
                return super().select(timeout)
            finally:
                tracer.exit(frame)

    loop = asyncio.SelectorEventLoop(TimedSelector() if trace_out else None)
    asyncio.set_event_loop(loop)
    started = time.perf_counter()
    try:
        code = loop.run_until_complete(daemon.serve_forever(
            PRESET, seed, wal, endpoints_file=endpoints, time_scale=time_scale))
    finally:
        loop.close()
    if trace_out:
        facts = dict(_facts(services[-1]), waits_ms=waits)
        _write_trace(trace_out, tracer, time.perf_counter() - started, facts)
    return code


def recover(seed: int, wal: str, reps: int, trace_out: str = "") -> int:
    from repro.serve.service import LiveCrService

    tracer = Tracer()
    if trace_out:
        layers.install_live(tracer, [])
    runs = []
    host = slowness()
    for _ in range(reps):
        service = None
        gc.collect()
        started = time.perf_counter()
        service = LiveCrService(PRESET, seed, wal)
        built = time.perf_counter()
        report = service.recover()
        ended = time.perf_counter()
        service.wal.close()
        before, host = host, slowness()
        runs.append({
            "setup_s": built - started,
            "recover_s": ended - built,
            "slowness": [before, host],
            "reconciled": report["reconciled"],
            "applied": report["applied"],
            "wal_records": report["wal_records"],
        })
    if trace_out:
        _write_trace(trace_out, tracer, ended - started, _facts(service))
    print(json.dumps({
        "runs": runs,
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024,
    }))
    return 0


def main(argv: list) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "serve":
        return serve(int(args[0]), args[1], args[2], float(args[3]), *args[4:])
    if mode == "recover":
        return recover(int(args[0]), args[1], int(args[2]), *args[3:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
