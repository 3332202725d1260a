#!/usr/bin/env python3
"""Profile one full simulation + report generation with cProfile.

Future perf PRs should start from this data instead of guessing: the
harness runs ``run_simulation`` at a chosen preset, renders every report
off the resulting store, and prints the top cumulative hotspots of each
stage separately (the simulation and the analysis have very different
profiles and optimising one tells you nothing about the other). Next to
each stage's table it prints the stage's cyclic-collector seconds and
its gen0/1/2 collection counts.

cProfile sees the main process only. A run that forks a day planner
(DESIGN.md §19) draws most of its trace there, so the simulation table
shows the apply half of each planning event (and the time spent waiting
for the planner), not the drawing; the ``planner:`` line gives the
planner's own seconds.

Usage::

    PYTHONPATH=src python scripts/profile_run.py --preset small --seed 11
    PYTHONPATH=src python scripts/profile_run.py --top 40 --sort tottime
    PYTHONPATH=src python scripts/profile_run.py --spill-dir spill

Every simulation flag of ``python -m repro run`` is accepted.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pathlib
import pstats
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.cli import (  # noqa: E402
    add_sim_args,
    format_run_metrics,
    spec_from_args,
)
from repro.experiments import simulate  # noqa: E402
from repro.experiments.registry import run_all  # noqa: E402


class CollectorClock:
    """Collector seconds and collections per generation, counted by a
    ``gc.callbacks`` hook while the ``with`` block runs."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = [0, 0, 0]
        self._began = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._began = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._began
            self.collections[info["generation"]] += 1

    def __enter__(self) -> "CollectorClock":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self)

    def __str__(self) -> str:
        gen0, gen1, gen2 = self.collections
        return (f"collector {self.seconds:.2f}s "
                f"(gen0/1/2 collections: {gen0}/{gen1}/{gen2})")


def _print_stats(
    profiler: cProfile.Profile, collector: CollectorClock, sort: str, top: int
) -> None:
    print(collector)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(sort).print_stats(top)


def _planner_line(metrics: dict) -> str:
    if not metrics["planner.days"]:
        return "planner: in-process (its drawing is in the tables below)"
    return (
        f"planner: forked child drew {metrics['planner.days']} days in "
        f"{metrics['planner.busy_s']:.2f}s (peak RSS "
        f"{metrics['planner.max_rss_bytes'] / 2**20:.0f} MiB); the main "
        f"process waited {metrics['planner.wait_s']:.2f}s for it. cProfile "
        "covers the main process only: the drawing is not in the tables "
        "below"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    # The run flags of `python -m repro run`, mapped onto the RunSpec.
    add_sim_args(parser)
    parser.set_defaults(preset="small", seed=11)
    parser.add_argument(
        "--top", type=int, default=25, help="hotspot rows to print per stage"
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        help="pstats sort key (cumulative, tottime, ncalls, ...)",
    )
    args = parser.parse_args(argv)
    spec = spec_from_args(args)

    sim_profiler = cProfile.Profile()
    with CollectorClock() as sim_collector:
        sim_profiler.enable()
        result = simulate(spec)
        sim_profiler.disable()

    result.store.drop_indices()  # profile a cold analysis index
    report_profiler = cProfile.Profile()
    started = time.perf_counter()
    with CollectorClock() as report_collector:
        report_profiler.enable()
        report = run_all(result)
        report_profiler.disable()
    report_seconds = time.perf_counter() - started

    counts = result.store.summary_counts()
    print(f"preset={args.preset} seed={args.seed}")
    print(
        f"simulation: {result.wall_seconds:.2f}s wall, "
        f"{sum(counts.values())} log records"
    )
    print(format_run_metrics(result))
    print(_planner_line(result.metrics))
    if result.metrics["checkpoint.written"]:
        from repro.core.recovery import latest_checkpoint, load_checkpoint

        snapshot = latest_checkpoint(spec.checkpoint_dir)
        if snapshot is not None:
            started_restore = time.perf_counter()
            load_checkpoint(snapshot)
            print(
                f"restore from {pathlib.Path(snapshot).name}: "
                f"{time.perf_counter() - started_restore:.3f}s"
            )
    print(f"report generation: {report_seconds:.3f}s, {len(report)} chars")
    print(
        "note: cProfile charges each collector pause to whichever "
        "allocating frame triggered it, spread over the tables below"
    )

    print(f"\n--- simulation hotspots (top {args.top}, {args.sort}) ---")
    _print_stats(sim_profiler, sim_collector, args.sort, args.top)
    print(f"\n--- report-generation hotspots (top {args.top}, {args.sort}) ---")
    _print_stats(report_profiler, report_collector, args.sort, args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
