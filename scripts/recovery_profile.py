#!/usr/bin/env python3
"""Measure live-service recovery at several WAL lengths.

For each length the script writes a mail-only WAL for the ``small``
deployment with perfbench's ``synthesize_wal`` (the ``live-recover``
input), then recovers it in a fresh process and prints one row: the
seconds ``LiveCrService.recover()`` took, the cyclic collector's full
passes inside it and their seconds, and the peak-RSS growth over the
built service, in total and per record.

Usage::

    PYTHONPATH=src python scripts/recovery_profile.py

The recovering process imports ``repro`` from ``PYTHONPATH``, so pointing
it at another checkout's ``src`` measures that tree against the same
WAL bytes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
#: WAL lengths measured, in records (DESIGN.md §15's table).
RECORDS = (15_000, 45_000, 135_000)
#: Seed of the ``small`` deployment and of the synthesized WAL.
SEED = 3


def _status_kb(field: str) -> int:
    """``VmRSS`` (resident now) or ``VmHWM`` (its peak) of this process.
    ``VmHWM`` starts afresh at exec, unlike ``ru_maxrss``, which a child
    inherits from the process that forked it."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def recover_once(wal: str) -> dict:
    """Build the service, then time its recovery of *wal* with a
    ``gc.callbacks`` hook counting full collector passes."""
    from repro.serve.service import LiveCrService

    service = LiveCrService("small", SEED, wal)
    gc.collect()
    before_kb = _status_kb("VmRSS")
    passes = []

    def clock(phase: str, info: dict) -> None:
        if info["generation"] == 2:
            passes.append(time.perf_counter())

    gc.callbacks.append(clock)
    started = time.perf_counter()
    report = service.recover()
    seconds = time.perf_counter() - started
    gc.callbacks.remove(clock)
    peak_kb = _status_kb("VmHWM")
    return {
        "records": report["wal_records"],
        "reconciled": report["reconciled"],
        "seconds": seconds,
        "full_passes": len(passes) // 2,
        "full_pass_s": sum(passes[1::2]) - sum(passes[::2]),
        "peak_growth_mb": (peak_kb - before_kb) / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", metavar="WAL", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(recover_once(args.child)))
        return 0

    sys.path.insert(0, str(PERFBENCH))
    from live import synthesize_wal

    print("records  recover_s  full_passes  passes_s  peak_growth_MB  KB/record")
    with tempfile.TemporaryDirectory(prefix="recovery_profile_") as tmp:
        wal = os.path.join(tmp, "recover.wal")
        for records in RECORDS:
            synthesize_wal(wal, SEED, records)
            done = subprocess.run(
                [sys.executable, __file__, "--child", wal],
                stdout=subprocess.PIPE, check=True)
            row = json.loads(done.stdout.decode().splitlines()[-1])
            if not row["reconciled"] or row["records"] != records:
                print(f"recovery of {records} records failed: {row}",
                      file=sys.stderr)
                return 1
            print(f"{records:>7}  {row['seconds']:>9.2f}  "
                  f"{row['full_passes']:>11}  {row['full_pass_s']:>8.2f}  "
                  f"{row['peak_growth_mb']:>14.1f}  "
                  f"{row['peak_growth_mb'] * 1024 / records:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
