#!/usr/bin/env python
"""Gate and record the simulator's throughput against a baseline commit.

    python scripts/bench_gate.py --check --pairs 3
    python scripts/bench_gate.py --write --pr N --baseline-commit C \\
        --baseline-pr M --pairs 10

Every measurement is one ``perfbench/run.py`` run of the ``sim-bench``
workload (seed 3, ``--seconds 15``); the script reads the JSON line that
run prints last. The baseline commit is checked out into a temporary git
worktree, and this tree's ``perfbench/`` is copied over the worktree's,
so the two sides differ only in ``src/``. The worktree is removed on
every exit path.

Runs come in HEAD/baseline pairs, alternating which side runs first, so
host drift lands on both sides. The ratio is the median HEAD
``throughput_per_s`` over the median baseline ``throughput_per_s``:
comparing ratios, not absolute rates, is what lets a CI runner check a
number recorded on another machine.

``--check`` reads the newest committed ``BENCH_PR<n>.json``, re-measures
the ratio against the baseline commit it records and exits 1 when the
live ratio falls more than 20 % below the committed one, or when any run
on either side is not ``correct`` or has ``failed`` operations.

``--write`` measures the same way and writes ``BENCH_PR<pr>.json``
(schema 2): every raw perfbench result of both sides, the ratio, and one
traced (``--trace 1``) run of this tree, which carries the per-layer
numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SCHEMA = 2
WORKLOAD = "sim-bench"
SEED = 3
#: ``perfbench/run.py`` requires ``--seconds``, but it sizes only the live
#: workloads: a ``sim-bench`` run is always one full bench deployment.
SECONDS = 15
#: The live ratio may fall this fraction below the committed one.
TOLERANCE = 0.20


def run_perfbench(root: pathlib.Path, trace: int = 0) -> dict:
    """One perfbench run of the tree at *root*; its final JSON line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
            "--seed", str(SEED), "--seconds", str(SECONDS),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, check=True)
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def _git(*args: str) -> None:
    subprocess.run(["git", *args], cwd=REPO_ROOT, check=True,
                   stdout=subprocess.DEVNULL)


@contextlib.contextmanager
def baseline_tree(commit: str):
    """The tree of *commit* with this tree's ``perfbench/``, in a worktree."""
    path = pathlib.Path(tempfile.mkdtemp(prefix="bench-baseline-"))
    try:
        _git("worktree", "add", "--detach", str(path), commit)
        shutil.rmtree(path / "perfbench", ignore_errors=True)
        shutil.copytree(REPO_ROOT / "perfbench", path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        yield path
    finally:
        with contextlib.suppress(subprocess.CalledProcessError):
            _git("worktree", "remove", "--force", str(path))
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(subprocess.CalledProcessError):
            _git("worktree", "prune")


def measure_pairs(baseline_root: pathlib.Path, pairs: int) -> tuple:
    """*pairs* HEAD/baseline runs, alternating which side goes first."""
    head, base = [], []
    for i in range(pairs):
        order = [("HEAD", REPO_ROOT, head), ("baseline", baseline_root, base)]
        if i % 2:
            order.reverse()
        for name, root, results in order:
            results.append(run_perfbench(root))
            print(f"pair {i + 1}/{pairs} {name}: "
                  f"{_throughput(results[-1]):,.0f} msgs/s", flush=True)
    return head, base


def _throughput(result: dict) -> float:
    return result["metrics"]["throughput_per_s"]["value"]


def ratio(head: list, base: list) -> float:
    """Median HEAD throughput over median baseline throughput."""
    return (statistics.median(map(_throughput, head))
            / statistics.median(map(_throughput, base)))


def bad_runs(results: list) -> list:
    """Runs whose outputs failed a check or that failed operations."""
    return [r for r in results if not r["correct"] or r["failed"] > 0]


def verdict(committed: float, head: list, base: list) -> int:
    """0 when every run is correct and the live ratio holds the floor."""
    bad = bad_runs(head) + bad_runs(base)
    for result in bad:
        print(f"FAIL: run not correct or with failed operations: {result}")
    live = ratio(head, base)
    floor = committed * (1.0 - TOLERANCE)
    print(f"live ratio {live:.3f}x (committed {committed:.3f}x, floor "
          f"{floor:.3f}x at {TOLERANCE:.0%} tolerance)")
    if live < floor:
        print("FAIL: throughput regressed below the committed ratio.")
        return 1
    if bad:
        return 1
    print("OK")
    return 0


def newest_entry() -> tuple:
    """``(pr, path, entry)`` of the highest-numbered ``BENCH_PR<n>.json``."""
    entries = []
    for path in REPO_ROOT.glob("BENCH_PR*.json"):
        match = re.fullmatch(r"BENCH_PR(\d+)\.json", path.name)
        if match:
            entries.append((int(match.group(1)), path))
    if not entries:
        raise SystemExit("no committed BENCH_PR*.json to check against")
    pr, path = max(entries)
    return pr, path, json.loads(path.read_text())


def _minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def cmd_check(pairs: int) -> int:
    _pr, path, entry = newest_entry()
    print(f"checking against {path.name}: ratio {entry['ratio']:.3f}x over "
          f"PR {entry['baseline_pr']} ({entry['baseline_commit']})")
    if _minor(platform.python_version()) != _minor(entry["python"]):
        print(f"note: the entry was measured on Python {entry['python']}; "
              f"the ratio depends on the interpreter")
    with baseline_tree(entry["baseline_commit"]) as root:
        head, base = measure_pairs(root, pairs)
    return verdict(entry["ratio"], head, base)


def cmd_write(args: argparse.Namespace) -> int:
    with baseline_tree(args.baseline_commit) as root:
        head, base = measure_pairs(root, args.pairs)
    print("traced run of HEAD", flush=True)
    traced = run_perfbench(REPO_ROOT, trace=1)
    bad = bad_runs(head + base + [traced])
    if bad:
        print(f"refusing to write: {len(bad)} run(s) not correct: {bad}")
        return 1
    entry = {
        "schema": SCHEMA,
        "pr": args.pr,
        "workload": WORKLOAD,
        "seed": SEED,
        "baseline_pr": args.baseline_pr,
        "baseline_commit": args.baseline_commit,
        "pairs": args.pairs,
        "ratio": ratio(head, base),
        "head": head,
        "baseline": base,
        "layers": traced,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "notes": args.notes,
    }
    path = REPO_ROOT / f"BENCH_PR{args.pr}.json"
    path.write_text(json.dumps(entry, indent=1) + "\n")
    print(f"wrote {path.name}: ratio {entry['ratio']:.3f}x over "
          f"{args.baseline_commit}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="gate HEAD against the newest committed entry")
    mode.add_argument("--write", action="store_true",
                      help="measure and write BENCH_PR<pr>.json")
    parser.add_argument("--pr", type=int)
    parser.add_argument("--baseline-commit")
    parser.add_argument("--baseline-pr", type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--notes", default="")
    args = parser.parse_args(argv)
    if args.check:
        return cmd_check(args.pairs)
    if args.pr is None or args.baseline_commit is None:
        parser.error("--write needs --pr and --baseline-commit")
    return cmd_write(args)


if __name__ == "__main__":
    sys.exit(main())
