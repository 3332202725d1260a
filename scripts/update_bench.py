#!/usr/bin/env python
"""Measure hot-path throughput and maintain the committed bench trajectory.

The repo commits one ``BENCH_PR<n>.json`` per performance-relevant PR (the
*trajectory*): a pinned-preset throughput measurement that future changes
are compared against. ``tests/test_bench_trajectory.py`` validates the
committed files; the CI bench job runs this script in ``--check`` mode.

Methodology
-----------

* Every repeat is a **fresh subprocess** (no warm allocator/caches from the
  previous repeat) timing ``run_simulation(preset, seed).wall_seconds``.
* ``msgs_per_sec`` is computed from the **best** wall time: best-of-N is
  the standard estimator for "what the code costs" on a machine with
  background noise; the median is recorded alongside for context.
* When a baseline tree is given (``--baseline-src``), repeats of the two
  trees are **interleaved** so host throttling and noise hit both equally,
  and the speedup is a same-host, same-session ratio.

Modes
-----

``--write`` (default)
    Measure this tree and write ``BENCH_PR<pr>.json`` at the repo root.
    With ``--baseline-src`` also records ``speedup_vs_baseline``. When
    neither ``--baseline-src`` nor ``--baseline-commit`` is given, the
    baseline defaults to the **latest committed bench entry** (resolved
    to the commit that last touched its file), *not* to ``pr - 1``: the
    trajectory is legitimately non-contiguous (a PR that ships no
    perf-relevant change writes no entry — PR 8 is such a gap), so the
    predecessor in the trajectory is "the newest entry", never an
    assumed adjacent PR number. Gaps are logged, not errors.

``--check``
    CI regression gate. Reads the newest committed ``BENCH_PR*.json``,
    materialises its recorded ``baseline_commit`` into a temporary git
    worktree, re-measures the live ratio on *this* host, and fails when it
    regressed more than ``--tolerance`` (default 20 %) below the committed
    ``speedup_vs_baseline``. Comparing *ratios* makes the gate
    host-independent — absolute msgs/sec on a CI runner is meaningless
    against numbers committed from a developer machine.

Examples
--------

    # Refresh the current PR's entry against the seed commit:
    python scripts/update_bench.py --pr 6 --baseline-commit 7c77349

    # CI gate:
    python scripts/update_bench.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: One subprocess per repeat: print wall seconds, messages, events.
#: The events read is getattr-based so the same probe runs against
#: baseline trees that predate ``SimulationResult.events_processed``.
_PROBE = """
from repro.experiments.runner import run_simulation
result = run_simulation({preset!r}, seed={seed})
events = getattr(result, "events_processed", 0)
if not events:
    events = result.simulator.events_processed
print(result.wall_seconds, len(result.store.mta), events)
"""

#: Sharding probes (this tree only — never pointed at a baseline).
_FULL_RUN_PROBE = """
import json
from repro.experiments.runner import run_simulation
result = run_simulation({preset!r}, seed={seed})
print(json.dumps({{
    "wall_seconds": result.wall_seconds,
    "messages": len(result.store.mta),
    "events": result.metrics["sim.events"],
    "max_rss_bytes": result.metrics["memory.max_rss_bytes"],
}}))
"""

_SHARD_WORKER_PROBE = """
import json
from repro.experiments.runner import run_simulation
result = run_simulation({preset!r}, seed={seed}, shard_of=({index}, {shards}))
print(json.dumps({{
    "wall_seconds": result.wall_seconds,
    "events": result.metrics["sim.events"],
    "max_rss_bytes": result.metrics["memory.max_rss_bytes"],
    "local_rows": result.exchange.local_rows,
}}))
"""

_SPILL_RUN_PROBE = """
import json, shutil, tempfile
from repro.experiments.runner import run_simulation
d = tempfile.mkdtemp(prefix="bench-spill-")
try:
    result = run_simulation(
        {preset!r}, seed={seed}, spill_dir=d, spill_chunk_rows={chunk_rows}
    )
    print(json.dumps({{
        "wall_seconds": result.wall_seconds,
        "max_rss_bytes": result.metrics["memory.max_rss_bytes"],
        "spilled_bytes": result.metrics["memory.store_spilled_bytes"],
        "live_rows": result.metrics["memory.store_live_rows"],
    }}))
finally:
    shutil.rmtree(d, ignore_errors=True)
"""


def _run_probe(src: pathlib.Path, code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin:/usr/local/bin"},
        check=True,
    )
    return proc.stdout


def _measure_once(src: pathlib.Path, preset: str, seed: int) -> tuple:
    """Run one fresh-subprocess repeat against the tree at *src*."""
    out = _run_probe(src, _PROBE.format(preset=preset, seed=seed))
    wall, messages, events = out.split()
    return float(wall), int(messages), int(events)


def measure_sharding(
    src: pathlib.Path,
    preset: str,
    seed: int,
    shards: int,
    spill_chunk_rows: int,
    repeats: int = 2,
) -> dict:
    """Honest sharding measurement on whatever box this runs on.

    Each shard worker runs **sequentially in its own fresh subprocess**,
    so its wall time and RSS high-water are what that worker would cost
    on a dedicated core — on a 1-core box a live N-worker pool would
    just timeslice and prove nothing. The projected N-core speedup is
    ``wall(shards=1) / max(per-shard wall)``: with one worker per core
    the run finishes when the slowest shard does. Repeats are
    **interleaved** (full run, then every shard, then again) and best-of
    is taken per configuration, so a host-speed swing between minutes
    can't land entirely on one side of the ratio. A spill run of the
    same workload records the bounded-memory counterpart.
    """
    cores = os.cpu_count() or 1
    print(f"sharding measurement: {preset!r} seed={seed} shards={shards} "
          f"x{repeats} interleaved repeats on {cores} core(s)", flush=True)
    full = None
    per_shard: list = [None] * shards
    for rep in range(repeats):
        run = json.loads(
            _run_probe(src, _FULL_RUN_PROBE.format(preset=preset, seed=seed))
        )
        if full is None or run["wall_seconds"] < full["wall_seconds"]:
            full = run
        print(f"  [{rep + 1}/{repeats}] shards=1: "
              f"{run['wall_seconds']:.2f}s, "
              f"{run['max_rss_bytes'] / 1e6:,.0f} MB RSS", flush=True)
        for index in range(shards):
            worker = json.loads(
                _run_probe(
                    src,
                    _SHARD_WORKER_PROBE.format(
                        preset=preset, seed=seed, index=index, shards=shards
                    ),
                )
            )
            best = per_shard[index]
            if best is None or worker["wall_seconds"] < best["wall_seconds"]:
                per_shard[index] = worker
            print(f"  [{rep + 1}/{repeats}] shard {index}/{shards}: "
                  f"{worker['wall_seconds']:.2f}s, "
                  f"{worker['max_rss_bytes'] / 1e6:,.0f} MB RSS, "
                  f"{worker['local_rows']:,} local rows", flush=True)
    spill = json.loads(
        _run_probe(
            src,
            _SPILL_RUN_PROBE.format(
                preset=preset, seed=seed, chunk_rows=spill_chunk_rows
            ),
        )
    )
    print(f"  spill    : {spill['wall_seconds']:.2f}s, "
          f"{spill['max_rss_bytes'] / 1e6:,.0f} MB RSS, "
          f"{spill['spilled_bytes'] / 1e6:,.0f} MB spilled", flush=True)
    max_shard_wall = max(w["wall_seconds"] for w in per_shard)
    return {
        "preset": preset,
        "seed": seed,
        "shards": shards,
        "cores": cores,
        "wall_seconds_shards1": round(full["wall_seconds"], 2),
        "messages": full["messages"],
        "events": full["events"],
        "max_rss_bytes_shards1": full["max_rss_bytes"],
        "per_shard": [
            {
                "wall_seconds": round(w["wall_seconds"], 2),
                "events": w["events"],
                "max_rss_bytes": w["max_rss_bytes"],
                "local_rows": w["local_rows"],
            }
            for w in per_shard
        ],
        "max_shard_wall_seconds": round(max_shard_wall, 2),
        "projected_speedup_ncore": round(
            full["wall_seconds"] / max_shard_wall, 2
        ),
        "spill": {
            "chunk_rows": spill_chunk_rows,
            "wall_seconds": round(spill["wall_seconds"], 2),
            "max_rss_bytes": spill["max_rss_bytes"],
            "spilled_bytes": spill["spilled_bytes"],
            "live_rows": spill["live_rows"],
        },
    }


def measure(
    src: pathlib.Path,
    preset: str,
    seed: int,
    repeats: int,
    baseline_src: pathlib.Path = None,
) -> dict:
    """Interleaved fresh-subprocess measurement of one or two trees."""
    walls, base_walls = [], []
    messages = events = 0
    for i in range(repeats):
        wall, messages, events = _measure_once(src, preset, seed)
        walls.append(wall)
        print(f"  repeat {i + 1}/{repeats}: {wall:.3f}s", flush=True)
        if baseline_src is not None:
            base_wall, _, _ = _measure_once(baseline_src, preset, seed)
            base_walls.append(base_wall)
            print(f"  baseline    : {base_wall:.3f}s", flush=True)
    out = {
        "wall_seconds_best": round(min(walls), 4),
        "wall_seconds_median": round(statistics.median(walls), 4),
        "messages": messages,
        "events": events,
        "msgs_per_sec": round(messages / min(walls), 1),
    }
    if base_walls:
        out["baseline_wall_seconds_best"] = round(min(base_walls), 4)
        out["speedup_vs_baseline"] = round(min(base_walls) / min(walls), 3)
    return out


def committed_entries() -> list:
    """All BENCH_PR*.json at the repo root, sorted by PR number."""
    entries = []
    for path in REPO_ROOT.glob("BENCH_PR*.json"):
        match = re.fullmatch(r"BENCH_PR(\d+)\.json", path.name)
        if match:
            data = json.loads(path.read_text())
            entries.append((int(match.group(1)), path, data))
    return sorted(entries)


def trajectory_gaps(prs: list) -> list:
    """PR numbers absent from a sorted trajectory.

    A gap is a PR that shipped no bench entry (PR 8 shipped no
    perf-relevant change). Gaps are legal; they are surfaced so a
    *deleted* entry is noticed rather than silently skipped over.
    """
    gaps = []
    for prev, cur in zip(prs, prs[1:]):
        gaps.extend(range(prev + 1, cur))
    return gaps


def describe_trajectory(entries: list) -> str:
    """One log line stating the committed PRs and any numbering gaps,
    one bracketed run of gaps per pair of neighbouring entries."""
    prs = [pr for pr, _, _ in entries]
    line = f"trajectory: PRs {prs}"
    runs = [
        trajectory_gaps([prev, cur]) for prev, cur in zip(prs, prs[1:])
        if cur > prev + 1
    ]
    if runs:
        line += (
            f"; no bench entry for PR(s) {', '.join(map(str, runs))} — "
            f"tolerated, the baseline is the latest committed entry, not "
            f"PR-minus-1"
        )
    return line


def entry_commit(path: pathlib.Path) -> str:
    """The commit that last touched a committed bench entry.

    That commit's tree produced the entry's numbers, which makes it the
    natural default baseline for the *next* entry. Returns "" outside a
    git checkout or for an uncommitted file.
    """
    proc = subprocess.run(
        ["git", "log", "-n", "1", "--format=%h", "--", path.name],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    return proc.stdout.strip() if proc.returncode == 0 else ""


def resolve_default_baseline(args: argparse.Namespace) -> None:
    """Fill in --baseline-commit/--baseline-pr from the trajectory.

    Only runs when the caller gave no baseline at all. Picks the latest
    committed entry with a PR number below the one being written — which
    may be several numbers back when intervening PRs shipped no entry —
    and resolves it to the commit that last touched its file.
    """
    entries = committed_entries()
    if entries:
        print(describe_trajectory(entries))
    prior = [e for e in entries if e[0] < args.pr]
    if not prior:
        print("no prior committed entry: writing a baseline-less entry")
        return
    base_pr, base_path, _ = prior[-1]
    commit = entry_commit(base_path)
    if not commit:
        print(f"cannot resolve the commit of {base_path.name}: "
              "writing a baseline-less entry")
        return
    args.baseline_commit = commit
    if args.baseline_pr is None:
        args.baseline_pr = base_pr
    print(
        f"baseline defaulted to the latest committed entry: "
        f"PR {base_pr} at {commit}"
    )


def cmd_write(args: argparse.Namespace) -> int:
    baseline_src = None
    worktree = None
    if args.baseline_src is None and args.baseline_commit is None:
        resolve_default_baseline(args)
    try:
        if args.baseline_src:
            baseline_src = pathlib.Path(args.baseline_src) / "src"
        elif args.baseline_commit:
            worktree = tempfile.mkdtemp(prefix="bench-baseline-")
            subprocess.run(
                ["git", "worktree", "add", "--detach", worktree,
                 args.baseline_commit],
                cwd=REPO_ROOT,
                check=True,
                capture_output=True,
            )
            baseline_src = pathlib.Path(worktree) / "src"
        print(
            f"measuring {args.preset!r} seed={args.seed} "
            f"x{args.repeats} repeats"
        )
        result = measure(
            REPO_ROOT / "src", args.preset, args.seed, args.repeats,
            baseline_src,
        )
        entry = {
            "schema": 1,
            "pr": args.pr,
            "preset": args.preset,
            "seed": args.seed,
            "repeats": args.repeats,
            "workload_epoch": args.workload_epoch,
            **result,
            "baseline_pr": args.baseline_pr,
            "baseline_commit": args.baseline_commit,
            "python": platform.python_version(),
            "notes": args.notes,
        }
        if args.measure_sharding:
            entry["sharding"] = measure_sharding(
                REPO_ROOT / "src",
                args.shard_preset,
                args.shard_seed,
                args.shard_count,
                args.spill_chunk_rows,
                repeats=args.shard_repeats,
            )
        path = REPO_ROOT / f"BENCH_PR{args.pr}.json"
        path.write_text(json.dumps(entry, indent=2) + "\n")
        print(f"wrote {path}")
        print(json.dumps(entry, indent=2))
        return 0
    finally:
        if worktree is not None:
            subprocess.run(
                ["git", "worktree", "remove", "--force", worktree],
                cwd=REPO_ROOT,
                capture_output=True,
            )


def cmd_check(args: argparse.Namespace) -> int:
    entries = committed_entries()
    if not entries:
        print("FAIL: no committed BENCH_PR*.json — the bench trajectory "
              "gate requires at least one committed entry.")
        return 1
    print(describe_trajectory(entries))
    pr, path, data = entries[-1]
    committed_ratio = data.get("speedup_vs_baseline")
    baseline_commit = data.get("baseline_commit")
    if committed_ratio is None or baseline_commit is None:
        print(f"FAIL: {path.name} has no baseline to check against.")
        return 1
    print(
        f"checking PR {pr}: committed speedup {committed_ratio}x vs "
        f"{baseline_commit} ({data['preset']!r} seed={data['seed']})"
    )
    worktree = tempfile.mkdtemp(prefix="bench-baseline-")
    try:
        subprocess.run(
            ["git", "worktree", "add", "--detach", worktree, baseline_commit],
            cwd=REPO_ROOT,
            check=True,
            capture_output=True,
        )
        result = measure(
            REPO_ROOT / "src",
            data["preset"],
            data["seed"],
            args.repeats,
            pathlib.Path(worktree) / "src",
        )
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", worktree],
            cwd=REPO_ROOT,
            capture_output=True,
        )
    live_ratio = result["speedup_vs_baseline"]
    floor = committed_ratio * (1.0 - args.tolerance)
    print(
        f"live speedup {live_ratio}x (committed {committed_ratio}x, "
        f"floor {floor:.3f}x at {args.tolerance:.0%} tolerance)"
    )
    if live_ratio < floor:
        print("FAIL: hot-path throughput regressed below the committed "
              "trajectory.")
        return 1
    print("OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="CI regression gate (see module docstring)")
    parser.add_argument("--pr", type=int, default=None,
                        help="PR number for the new BENCH_PR<n>.json")
    parser.add_argument("--preset", default="small")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--baseline-src", default=None,
                        help="path to a checked-out baseline tree")
    parser.add_argument("--baseline-commit", default=None,
                        help="git ref to measure the baseline from")
    parser.add_argument("--baseline-pr", type=int, default=None)
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional ratio regression in --check")
    parser.add_argument("--workload-epoch", type=int, default=1,
                        help="bump when a PR legitimately changes the event "
                             "count of the pinned workload (messages must "
                             "still match; see tests/test_bench_trajectory)")
    parser.add_argument("--measure-sharding", action="store_true",
                        help="also record a sharded-data-plane measurement "
                             "(per-shard fresh-subprocess walls + spill RSS) "
                             "in the entry's 'sharding' object")
    parser.add_argument("--shard-preset", default="medium",
                        help="preset for --measure-sharding (pinned: medium)")
    parser.add_argument("--shard-seed", type=int, default=11)
    parser.add_argument("--shard-count", type=int, default=4)
    parser.add_argument("--shard-repeats", type=int, default=2)
    parser.add_argument("--spill-chunk-rows", type=int, default=50000)
    parser.add_argument("--notes", default="")
    args = parser.parse_args(argv)
    if args.check:
        return cmd_check(args)
    if args.pr is None:
        parser.error("--pr is required when writing a bench entry")
    return cmd_write(args)


if __name__ == "__main__":
    sys.exit(main())
