"""Wall-clock benches for the parallel multi-run execution layer.

The speedup check is the acceptance gate for the fan-out substrate: a
4-run ablation sweep at ``jobs=4`` must beat the serial path by >=1.5x
on a multi-core runner. Machines with fewer than four cores skip it —
there is nothing to prove there.
"""

import os
import time

import pytest

from repro.experiments.parallel import ParallelRunner, RunSpec
from repro.util.render import TextTable

#: A 4-run ablation sweep at the `tiny` scale: the deployed product, the
#: no-auxiliary-filters ablation, the dedup ablation, and inline SPF.
SWEEP = [
    RunSpec("tiny", seed=11, label="baseline"),
    RunSpec("tiny", seed=11, chain="cr-only", label="no-filters"),
    RunSpec(
        "tiny",
        seed=11,
        config_overrides={"challenge_dedup": False},
        label="no-dedup",
    ),
    RunSpec(
        "tiny",
        seed=11,
        chain="antivirus,reverse_dns,rbl,spf",
        label="inline-spf",
    ),
]


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup check needs >= 4 cores",
)
def test_parallel_sweep_speedup(emit_report):
    """jobs=4 runs the 4-spec ablation sweep >=1.5x faster than serial."""
    serial_runner = ParallelRunner(jobs=1, cache=None)
    started = time.perf_counter()
    serial = serial_runner.run(SWEEP)
    serial_wall = time.perf_counter() - started

    parallel_runner = ParallelRunner(jobs=4, cache=None)
    started = time.perf_counter()
    parallel = parallel_runner.run(SWEEP)
    parallel_wall = time.perf_counter() - started

    speedup = serial_wall / parallel_wall
    table = TextTable(
        headers=["mode", "wall (s)", "runs"],
        title=f"Parallel fan-out — 4-run tiny ablation sweep ({speedup:.2f}x)",
    )
    table.add_row("jobs=1 (serial bypass)", f"{serial_wall:.2f}", len(serial))
    table.add_row("jobs=4 (process pool)", f"{parallel_wall:.2f}", len(parallel))
    emit_report("parallel_speedup", table.render())

    # Identical content regardless of execution mode.
    assert [s.digest for s in serial] == [s.digest for s in parallel]
    assert speedup >= 1.5


def test_bench_fanout_serial_bypass(benchmark):
    """Times the jobs=1 inline path on one tiny run (the pool-free floor
    every parallel speedup is measured against)."""
    runner = ParallelRunner(jobs=1, cache=None)
    summaries = benchmark.pedantic(
        runner.run, args=([SWEEP[0]],), rounds=1, iterations=1
    )
    assert summaries[0].store.summary_counts()["mta"] > 0


def test_bench_cached_sweep_is_simulation_free(benchmark, tmp_path_factory):
    """Second invocation of a cached sweep answers purely from disk."""
    from repro.experiments.parallel import RunCache

    cache = RunCache(tmp_path_factory.mktemp("runs"))
    warmup = ParallelRunner(jobs=1, cache=cache)
    warmup.run(SWEEP[:2])
    assert warmup.runs_executed == 2

    cached = ParallelRunner(jobs=1, cache=cache)
    summaries = benchmark.pedantic(
        cached.run, args=(SWEEP[:2],), rounds=1, iterations=1
    )
    assert cached.runs_executed == 0
    assert cached.cache_hits == 2
    assert len(summaries) == 2
