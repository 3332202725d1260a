#!/usr/bin/env python3
"""CI smoke test for the message-lifecycle ledger.

Runs one simulation with the continuous auditor on and asserts the two
properties CI cares about:

* **lifecycle conservation** — every message MTA-IN accepted reached
  exactly one terminal disposition (accepted == delivered + black-dropped
  + filter-dropped + released + deleted + expired + pending-at-horizon),
  with zero stranded messages and zero leaked pending-challenge slots;
* **the run carried real traffic** — nonzero accepted messages,
  quarantines, and digest activity, so a workload regression that empties
  the pipeline fails the job instead of passing vacuously.

Exits nonzero with a diagnostic on any violation. (A broken partition
usually aborts earlier still: the auditor raises LedgerError at the
offending transition.)

Usage::

    PYTHONPATH=src python scripts/audit_smoke.py --preset small --seed 11
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.experiments import run_simulation  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--preset", default="small", help="scale preset (default: small)"
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--faults",
        default=None,
        help="optional fault preset (audit must hold under weather too)",
    )
    args = parser.parse_args(argv)

    result = run_simulation(
        args.preset, seed=args.seed, faults=args.faults, audit=True
    )
    stats = result.ledger_stats
    print(
        f"preset={args.preset} seed={args.seed} faults={args.faults}: "
        f"{stats.accepted} accepted = {stats.delivered} delivered "
        f"+ {stats.black_dropped} black + {stats.filter_dropped} filtered "
        f"+ {stats.released} released + {stats.deleted} deleted "
        f"+ {stats.expired} expired + {stats.pending_at_horizon} at-horizon; "
        f"{stats.stranded} stranded, "
        f"{stats.leaked_challenge_slots} leaked challenge slot(s)"
    )

    failures = []
    if not stats.audit:
        failures.append("auditor was not enabled (stats.audit is False)")
    if not stats.conserved:
        failures.append("lifecycle conservation violated")
    if stats.accepted == 0:
        failures.append("no accepted messages — workload produced no traffic")
    if stats.quarantined_total == 0:
        failures.append("no quarantined messages — gray path never exercised")
    if stats.released + stats.deleted == 0:
        failures.append(
            "no releases or deletes — digest/challenge paths never exercised"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("audit smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
