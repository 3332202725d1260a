#!/usr/bin/env python
"""CI entry point for the live-service chaos gate.

Runs the full kill -9 chaos harness (:mod:`repro.serve.chaos`) — by
default 20 randomized SIGKILL injections against a real ``repro serve``
subprocess under open-loop load — and writes the machine-readable report
(per-round ack counts, torn-tail observations, each restart's
recovered records and boot-to-ready seconds, the clean-burst
throughput/latency record, and the final ledger reconciliation) to an
artifact file. Exit code 0 means zero accepted-message loss across every
kill plus a clean reconciled shutdown; any conservation violation raises
and fails the job.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py --kills 20 \
        --artifact serve_smoke_report.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile

from repro.serve.chaos import ChaosError, run_chaos


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kills", type=int, default=20)
    parser.add_argument("--artifact", default="serve_smoke_report.json")
    parser.add_argument(
        "--workdir",
        default=None,
        help="WAL/endpoints directory (default: a fresh temp dir)",
    )
    args = parser.parse_args(argv)

    workdir = args.workdir or tempfile.mkdtemp(prefix="serve_smoke_")
    try:
        report = asyncio.run(run_chaos(workdir, kills=args.kills))
    except ChaosError as exc:
        print(f"CHAOS GATE FAILED: {exc}", file=sys.stderr)
        return 1
    with open(args.artifact, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    burst = report["clean_burst"]
    print(
        f"chaos gate passed: {report['kills']} kill -9 injections, "
        f"{report['cumulative_acked']} acked / "
        f"{report['final_reconciliation']['accepted']} accepted "
        f"(zero loss), {report['torn_tails_seen']} torn WAL tails repaired; "
        f"final boot recovered {report['final_boot']['recovered_records']} "
        f"records in {report['final_boot']['boot_to_ready_s']} s; "
        f"clean burst {burst['sustained_msgs_per_sec']} msgs/s, "
        f"p99 accept {burst['accept_latency_ms']['p99']} ms -> {args.artifact}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
