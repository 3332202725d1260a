#!/usr/bin/env python3
"""CI smoke test for crash-fault injection + checkpoint/restore.

Runs one audited simulation with component crashes and periodic
checkpoints, then restores from the newest snapshot, and asserts the
properties CI cares about:

* **crashes actually happened** — nonzero injected crashes, so a
  silently-disabled crash plan fails the job instead of passing
  vacuously;
* **zero message loss** — the run completes under the continuous
  lifecycle auditor (any ledger violation raises), the crash counters
  report no lost messages and no journal-rebuild mismatches, and
  outbound delivery conservation holds;
* **resume ≡ uninterrupted** — re-running from the last checkpoint
  produces a byte-identical measurement-store digest.

Writes a JSON timing artifact (checkpoint write/restore seconds, wall
times, crash counts) for the CI job to upload. Exits nonzero with a
diagnostic on any violation.

Usage::

    PYTHONPATH=src python scripts/crash_smoke.py --preset small --seed 11 \\
        --crashes flaky --artifact crash_smoke_timing.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.core.recovery import latest_checkpoint  # noqa: E402
from repro.experiments import run_simulation  # noqa: E402
from repro.experiments.parallel import store_digest  # noqa: E402
from repro.net.crashes import crash_preset_names  # noqa: E402
from repro.util.simtime import DAY  # noqa: E402
from repro.util.stats import safe_ratio  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--preset", default="small", help="scale preset (default: small)"
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--crashes",
        default="flaky",
        choices=[n for n in crash_preset_names() if n != "off"],
        help="crash preset (default: flaky)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=float,
        default=5.0,
        metavar="DAYS",
        help="snapshot interval in simulated days (default: 5)",
    )
    parser.add_argument(
        "--artifact",
        default="crash_smoke_timing.json",
        metavar="PATH",
        help="where to write the JSON timing artifact",
    )
    args = parser.parse_args(argv)

    failures = []
    with tempfile.TemporaryDirectory(prefix="crash-smoke-") as checkpoint_dir:
        result = run_simulation(
            args.preset,
            seed=args.seed,
            crashes=args.crashes,
            audit=True,
            checkpoint_every=args.checkpoint_every * DAY,
            checkpoint_dir=checkpoint_dir,
        )
        metrics = result.metrics
        by_component = {
            name.rsplit(".", 1)[1]: count
            for name, count in metrics.items()
            if name.startswith("crashes.by_component.")
        }
        digest = store_digest(result.store)
        print(
            f"preset={args.preset} seed={args.seed} crashes={args.crashes}: "
            f"{metrics['crashes.crashes']} crashes "
            f"({', '.join(f'{c}={n}' for c, n in by_component.items())}); "
            f"{metrics['crashes.inbound_deferred']} inbound deferred, "
            f"{metrics['crashes.redriven']} re-driven, "
            f"{metrics['crashes.lost']} lost, "
            f"{metrics['crashes.journals_rebuilt']} journals rebuilt "
            f"({metrics['crashes.journal_mismatches']} mismatches); "
            f"{metrics['checkpoint.written']} checkpoints in "
            f"{metrics['checkpoint.write_seconds']:.3f}s"
        )

        if not metrics["crashes.enabled"]:
            failures.append(
                "crash plan was not installed (crashes.enabled is False)"
            )
        if metrics["crashes.crashes"] == 0:
            failures.append("no crashes injected — the weather was too calm")
        if metrics["crashes.lost"]:
            failures.append(
                f"{metrics['crashes.lost']} messages lost in crashes"
            )
        if metrics["crashes.journal_mismatches"]:
            failures.append(
                f"{metrics['crashes.journal_mismatches']} journal rebuild "
                "mismatches"
            )
        if not result.fault_stats.conserved:
            failures.append("outbound delivery conservation violated")
        if metrics["checkpoint.written"] == 0:
            failures.append("no checkpoints written — nothing to restore")

        snapshot = latest_checkpoint(checkpoint_dir)
        resumed_digest = None
        restore_seconds = None
        resumed_wall = None
        if snapshot is None:
            failures.append("no snapshot found to resume from")
        else:
            resumed = run_simulation(resume_from=str(snapshot))
            resumed_digest = store_digest(resumed.store)
            restore_seconds = resumed.metrics["checkpoint.restore_seconds"]
            resumed_wall = resumed.wall_seconds
            print(
                f"resumed from {pathlib.Path(snapshot).name} "
                f"(restore {restore_seconds:.3f}s, "
                f"re-run {resumed_wall:.1f}s wall)"
            )
            if resumed_digest != digest:
                failures.append(
                    "resume is not byte-identical: "
                    f"{resumed_digest[:16]} != {digest[:16]}"
                )

    artifact = {
        "preset": args.preset,
        "seed": args.seed,
        "crashes": args.crashes,
        "crash_count": metrics["crashes.crashes"],
        "crashes_by_component": by_component,
        "messages_lost": metrics["crashes.lost"],
        "journal_mismatches": metrics["crashes.journal_mismatches"],
        "wall_seconds": result.wall_seconds,
        "resumed_wall_seconds": resumed_wall,
        "checkpoints_written": metrics["checkpoint.written"],
        "checkpoint_write_seconds": metrics["checkpoint.write_seconds"],
        "checkpoint_mean_write_seconds": safe_ratio(
            metrics["checkpoint.write_seconds"], metrics["checkpoint.written"]
        ),
        "restore_seconds": restore_seconds,
        "store_digest": digest,
        "resumed_store_digest": resumed_digest,
        "resume_identical": resumed_digest == digest,
    }
    with open(args.artifact, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"timing artifact written to {args.artifact}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("crash smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
