"""The live-service workloads: ``live-ingest`` and ``live-recover``.

``live-ingest`` launches ``repro serve --preset small`` (default hybrid
chain) as a child process and drives it from this process with the
``sstress`` synthetic mix over 2 persistent connections, in two
open-loop phases:

* ``steady`` at :data:`STEADY_RATE` msgs/s, about half the capacity
  measured while sizing the benchmark (1.2k msgs/s on a 2-core box);
  its accept latency is measured from each message's scheduled arrival;
* ``overload`` at :data:`OVERLOAD_RATE` msgs/s, 2.5 times that capacity,
  offered in :data:`OVERLOAD_BURSTS` bursts between host-speed probes
  (``hostspeed``); the median of their acked messages per reference
  second is the capacity. With 2 connections each waiting
  for its reply the schedule falls behind instead of refusing, so every
  offered message is still acked.

The time scale makes about three simulated days pass per run of
``--seconds``, so digest and expiry jobs fire; the gate checks that at
least one day passed. The server is stopped with SIGTERM and its
shutdown reconciliation must report ``reconciled: true`` with at least
as many WAL records as acked messages.

``live-recover`` writes a mail-only WAL from the seed through the public
``WriteAheadLog.append``/``flush`` API, in the record shape the SMTP
frontend journals, with ``t`` stamps spread over two simulated days, and
times ``LiveCrService("small", seed, wal).recover()`` in a fresh
process, :data:`RECOVER_REPS` times over (a fresh service each time,
host-speed probes between them); the median replay rate per reference
second counts.
Every recovery must reconcile and apply every record.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Optional

from hostspeed import reference_seconds, slowness
from layers import tail_ms
from stats import min_samples

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
PRESET = "small"
DAY = 86_400.0

CONNECTIONS = 2
STEADY_RATE = 600.0
OVERLOAD_RATE = 3000.0
#: Shares of ``--seconds`` the steady phase is scheduled over, and the
#: overload phase offers at ``OVERLOAD_RATE``.
STEADY_SHARE = 0.25
OVERLOAD_SHARE = 0.125
#: Simulated days per ``--seconds`` of wall time.
DAYS_PER_RUN = 3.0
#: Server launches per ``live-ingest`` run; ``setup_s`` is their median.
SERVE_LAUNCHES = 5
#: The overload phase is offered in this many bursts; capacity is the
#: median of their acked rates.
OVERLOAD_BURSTS = 5
#: Recoveries per ``live-recover`` run, each by a fresh ``LiveCrService``;
#: the run reports their medians.
RECOVER_REPS = 4
#: WAL records per second of ``--seconds`` (replay ran at 13k-20k
#: records/s on a 2-vCPU VM, so each recovery takes a few seconds).
RECOVER_RECORDS_PER_S = 3000
RECOVER_DAYS = 2.0
BODY_BYTES = 400
LAUNCH_TIMEOUT = 120.0


# -- live-recover input ------------------------------------------------------


def synthesize_wal(path: str, seed: int, records: int) -> None:
    """Write *records* mail records for the ``small`` deployment of
    *seed* to a fresh WAL at *path*. Same seed, same bytes."""
    from repro.serve.service import LiveCrService
    from repro.serve.sstress import StressConfig, build_messages, default_senders
    from repro.serve.wal import WriteAheadLog

    # Construction touches no WAL file; recover() would.
    directory = LiveCrService(PRESET, seed, path).directory()
    recipients = [u for c in directory["companies"] for u in c["users"]]
    plan = build_messages(StressConfig(smtp_port=0, messages=records, seed=seed),
                          recipients, default_senders())
    if os.path.exists(path):
        os.remove(path)
    wal = WriteAheadLog(path)
    wal.open()
    span = RECOVER_DAYS * DAY
    for i, (mail_from, rcpt_to, subject) in enumerate(plan):
        header = f"Subject: {subject}\r\n"
        wal.append({
            "kind": "mail",
            "mail_from": mail_from,
            "rcpt_to": rcpt_to,
            # Bytes the SMTP frontend counts: header, blank line, body line.
            "size": len(header) + 2 + BODY_BYTES + 2,
            "client_ip": "127.0.0.1",
            "subject": subject,
            "t": span * i / records,
        })
    wal.flush()
    wal.close()


def _children_peak_rss() -> int:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024


def _own_peak_rss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _read_trace(path: str):
    with open(path) as fh:
        return json.load(fh)


def recover(seed: int, seconds: int, out_dir: str,
            trace_out: Optional[str] = None) -> dict:
    wal = os.path.join(out_dir, "recover.wal")
    records = RECOVER_RECORDS_PER_S * seconds
    synthesize_wal(wal, seed, records)
    argv = [sys.executable, CHILD, "recover", str(seed), wal,
            str(1 if trace_out else RECOVER_REPS)]
    done = subprocess.run(argv + ([trace_out] if trace_out else []),
                          stdout=subprocess.PIPE, check=True, timeout=170)
    report = json.loads(done.stdout.decode().strip().splitlines()[-1])
    wal_bytes = os.path.getsize(wal)
    os.remove(wal)
    runs = report["runs"]
    for r in runs:
        r["wall_s"] = r["setup_s"] + r["recover_s"]
        r["reference_s"] = reference_seconds([(r["recover_s"], *r["slowness"])])
        r["setup_s"] = reference_seconds([(r["setup_s"], *r["slowness"])])
    checks = [
        ("reconciled", all(r["reconciled"] for r in runs)),
        ("applied_all", all(r["applied"] == records == r["wal_records"]
                            for r in runs)),
    ]
    rate = statistics.median(records / r["reference_s"] for r in runs)
    facts = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "units": records,
        "throughput": rate,
        "wall": statistics.median(r["wall_s"] for r in runs),
        "peak_rss_bytes": _own_peak_rss() + report["peak_rss_bytes"],
        "wal_bytes": wal_bytes,
        "checks": checks,
        "attempted": len(checks),
        "failed": sum(not ok for _name, ok in checks),
        "named": {"replay_records_per_s": (rate, "1/s"),
                  "replay_records_per_s_raw": (statistics.median(
                      records / r["recover_s"] for r in runs), "1/s"),
                  "wal_records": (records, "count")},
    }
    if trace_out:
        traced = _read_trace(trace_out)
        facts.update(traced["facts"])
        facts["window_s"] = traced["window_s"]
        facts["trace_state"] = traced["tracer"]
    return facts


# -- live-ingest ---------------------------------------------------------------


async def _http_get(host: str, port: int, path: str) -> dict:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), 30)
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    if int(head.split(b" ")[1]) != 200:
        raise RuntimeError(f"GET {path}: {head[:80]!r}")
    return json.loads(body)


class _Server:
    """One ``serve`` child: launched, awaited until it announces its
    ports, stopped with SIGTERM."""

    def __init__(self, seed: int, seconds: int, out_dir: str,
                 trace_out: Optional[str] = None) -> None:
        self.wal = os.path.join(out_dir, "ingest.wal")
        self.endpoints_file = os.path.join(out_dir, "endpoints.json")
        for path in (self.wal, self.endpoints_file):
            if os.path.exists(path):
                os.remove(path)
        time_scale = DAYS_PER_RUN * DAY / seconds
        argv = [sys.executable, CHILD, "serve", str(seed), self.wal,
                self.endpoints_file, repr(time_scale)]
        self.log = open(os.path.join(out_dir, "serve.log"), "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv + ([trace_out] if trace_out else []),
            stdout=subprocess.PIPE, stderr=self.log)
        deadline = self.started + LAUNCH_TIMEOUT
        while not os.path.exists(self.endpoints_file):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("the server never announced its endpoints")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - self.started
        with open(self.endpoints_file) as fh:
            self.endpoints = json.load(fh)

    def stop(self) -> dict:
        """SIGTERM, wait, and return the shutdown report (``{}`` if none)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        finally:
            self.log.close()
        self.ended = time.perf_counter()
        for line in reversed(out.decode().splitlines()):
            if line.startswith('{"shutdown"'):
                return json.loads(line)["shutdown"]
        return {}


async def _drive(server: _Server, seed: int, seconds: int) -> dict:
    """Both phases plus the loop-lag probe; returns what they measured."""
    from repro.serve import sstress

    outcomes: list = []

    class Recorded(sstress._Outcome):
        """Keeps each run's raw latencies (the report rounds them)."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            outcomes.append(self)

    sstress._Outcome = Recorded
    host = server.endpoints["host"]
    directory = await _http_get(host, server.endpoints["web_port"], "/directory")
    recipients = [u for c in directory["companies"] for u in c["users"]]

    def config(rate: float, messages: int, phase_seed: int):
        return sstress.StressConfig(
            smtp_port=server.endpoints["smtp_port"], host=host, rate=rate,
            messages=messages, connections=CONNECTIONS, seed=phase_seed,
            recipients=recipients, body_bytes=BODY_BYTES)

    lag_ms: list = []
    stop_lag = asyncio.Event()

    async def lag_probe(period: float = 0.005) -> None:
        loop = asyncio.get_running_loop()
        while not stop_lag.is_set():
            due = loop.time() + period
            await asyncio.sleep(period)
            lag_ms.append((loop.time() - due) * 1000.0)

    lag_task = asyncio.ensure_future(lag_probe())
    steady = await sstress.run_stress(
        config(STEADY_RATE, int(STEADY_RATE * STEADY_SHARE * seconds), seed))
    stop_lag.set()
    await lag_task
    bursts = []
    burst_size = int(OVERLOAD_RATE * OVERLOAD_SHARE * seconds / OVERLOAD_BURSTS)
    speed = slowness()
    for burst in range(OVERLOAD_BURSTS):
        began = time.perf_counter()
        report = await sstress.run_stress(
            config(OVERLOAD_RATE, burst_size, seed + 1 + burst))
        ended = time.perf_counter()
        before, speed = speed, slowness()
        bursts.append({"report": report, "seconds": ended - began,
                       "slowness": (before, speed)})
    stats = await _http_get(host, server.endpoints["web_port"], "/stats")
    return {"steady": steady, "bursts": bursts,
            "latencies_ms": outcomes[0].latencies_ms, "loop_lag_ms": lag_ms,
            "stats": stats}


def ingest(seed: int, seconds: int, out_dir: str,
           trace_out: Optional[str] = None) -> dict:
    setups = []
    before = slowness()
    if not trace_out:
        for _ in range(SERVE_LAUNCHES - 1):
            server = _Server(seed, seconds, out_dir)
            setups.append(server.setup_s)
            server.stop()
    server = _Server(seed, seconds, out_dir, trace_out)
    setups.append(server.setup_s)
    speed = (before + slowness()) / 2
    setups = [setup / speed for setup in setups]
    try:
        driven = asyncio.run(_drive(server, seed, seconds))
    finally:
        shutdown = server.stop()
    wal_bytes = os.path.getsize(server.wal)
    os.remove(server.wal)

    steady, bursts, stats = driven["steady"], driven["bursts"], driven["stats"]
    offered = steady["offered"] + sum(b["report"]["offered"] for b in bursts)
    acked = steady["acked"] + sum(b["report"]["acked"] for b in bursts)
    latencies = driven["latencies_ms"]
    raw_rates = [b["report"]["acked"] / b["seconds"] for b in bursts]
    capacity = statistics.median(
        b["report"]["acked"] / reference_seconds([(b["seconds"], *b["slowness"])])
        for b in bursts)
    checks = [
        ("reconciled", bool(shutdown.get("reconciled"))),
        ("wal_covers_acked", shutdown.get("wal_records", -1) >= acked),
        ("sim_day_passed", stats["sim_now"] >= DAY),
        ("steady_samples", len(latencies) >= min_samples(0.99)),
    ]
    service = stats["service"]
    transitions = stats["shed_transitions"]
    facts = {
        "setup_s": statistics.median(setups),
        "units": sum(b["report"]["acked"] for b in bursts),
        "throughput": capacity,
        "wall": server.ended - server.started,
        "peak_rss_bytes": _own_peak_rss() + _children_peak_rss(),
        "checks": checks,
        "attempted": offered,
        "failed": offered - acked,
        "accept_p50_ms": tail_ms(latencies, 0.50),
        "accept_p99_ms": tail_ms(latencies, 0.99),
        "accept_samples": len(latencies),
        "loop_lag_ms": driven["loop_lag_ms"],
        "fsync_records": service["fsync_records"],
        "fsync_batches": service["fsync_batches"],
        "refused": service["refused_full"] + service["refused_deadline"],
        "shed_max": max((t["to"] for t in transitions), default=0),
        "wal_bytes": wal_bytes,
        "burst_rates": raw_rates,
        "named": {
            "capacity_msgs_per_s": (capacity, "1/s"),
            "capacity_msgs_per_s_raw": (statistics.median(raw_rates), "1/s"),
            "accept_p50_ms": (tail_ms(latencies, 0.50), "ms"),
            "accept_p99_ms": (tail_ms(latencies, 0.99), "ms"),
            "accept_samples": (len(latencies), "count"),
            "steady_rate": (STEADY_RATE, "1/s"),
            "overload_rate": (OVERLOAD_RATE, "1/s"),
        },
    }
    if trace_out:
        traced = _read_trace(trace_out)
        facts.update(traced["facts"])
        facts["window_s"] = traced["window_s"]
        facts["trace_state"] = traced["tracer"]
    return facts
