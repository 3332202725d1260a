"""Process harness for the live service: boot, announce, run, shut down.

``python -m repro serve`` lands here. The daemon recovers the WAL,
starts the engine worker and both frontends, writes the bound ports to
an *endpoints file* (ports default to 0 = OS-assigned, so parallel test
runs never collide), and then waits for SIGTERM/SIGINT. Graceful
shutdown drains the admission queue through the engine — every envelope
that was 250-acked or queued gets applied — then closes the WAL and
prints the final reconciliation as JSON on stdout and the final metrics
map on stderr, exiting 0 only if the ledgers reconciled. SIGKILL skips
all of that by definition; that path is covered by WAL replay on the
next boot, which is the entire point.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
from typing import Optional

from repro.serve.service import LiveCrService
from repro.serve.smtp_server import SmtpFrontend
from repro.serve.web import WebFrontend
from repro.util.metrics import format_metrics


async def serve_forever(
    preset: str = "tiny",
    seed: int = 7,
    wal_path: str = "serve.wal",
    *,
    host: str = "127.0.0.1",
    smtp_port: int = 0,
    web_port: int = 0,
    endpoints_file: Optional[str] = None,
    time_scale: float = 1.0,
) -> int:
    """Run the service until SIGTERM/SIGINT; returns the exit code."""
    service = LiveCrService(preset, seed, wal_path, time_scale=time_scale)
    service.recover()
    await service.start()
    smtp = SmtpFrontend(service, host, smtp_port)
    web = WebFrontend(service, host, web_port)
    await smtp.start()
    await web.start()

    if endpoints_file:
        announcement = {
            "pid": os.getpid(),
            "host": host,
            "smtp_port": smtp.port,
            "web_port": web.port,
            "wal_path": wal_path,
            "recovered_records": service.wal.appended_seq,
            "recovery_reconciled": service.last_reconciliation["reconciled"],
        }
        tmp = endpoints_file + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(announcement, fh)
        os.replace(tmp, endpoints_file)  # atomic: readers never see half

    print(
        f"serve: smtp={host}:{smtp.port} web={host}:{web.port} "
        f"wal={wal_path} recovered={service.wal.appended_seq} "
        f"(reconciled={service.last_reconciliation['reconciled']})",
        file=sys.stderr,
        flush=True,
    )

    stop = asyncio.get_running_loop().create_future()

    def _request_stop() -> None:
        if not stop.done():
            stop.set_result(None)

    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, _request_stop)
    try:
        await stop
    finally:
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.remove_signal_handler(signum)
        await smtp.close()
        await web.close()
        await service.close()
    final = service.reconcile()
    print(
        "serve: final metrics\n" + format_metrics(service.metrics()),
        file=sys.stderr,
        flush=True,
    )
    print(json.dumps({"shutdown": final}), flush=True)
    return 0 if final["reconciled"] else 3


__all__ = ["serve_forever"]
