"""The spill store (DESIGN.md §12): streaming a run's log chunks to disk
changes where the bytes live, not what they say."""

from __future__ import annotations

from repro.experiments.parallel import (
    ParallelRunner,
    RunCache,
    RunSpec,
    store_digest,
)
from repro.experiments.registry import run_all
from repro.experiments.runner import RunRecord, run_simulation


def test_spilled_store_digest_and_report_match_in_memory(tmp_path):
    """Digest and full rendered report are identical to the in-memory
    run's."""
    base = run_simulation("tiny", seed=7)
    spilled = run_simulation(
        "tiny", seed=7, spill_dir=str(tmp_path), spill_chunk_rows=256
    )
    assert spilled.metrics["memory.store_spilled_bytes"] > 0
    assert store_digest(spilled.store) == store_digest(base.store)
    assert run_all(spilled) == run_all(base)


def test_spilled_spec_summary_matches_plain(tmp_path):
    """A spilled RunSpec through the parallel runner yields the plain
    spec's summary, leaves its spill directory empty, and is cacheable:
    the store is fully in memory by the time the spill directory is
    gone."""
    runner = ParallelRunner(jobs=1, cache=RunCache(tmp_path / "cache"))
    spill_dir = str(tmp_path / "spill")
    specs = [
        RunSpec(preset="tiny", seed=5),
        RunSpec(preset="tiny", seed=5, spill_dir=spill_dir,
                spill_chunk_rows=256),
    ]
    plain, spilled = runner.run(specs)
    # Spill settings are not part of the cache key, so both specs share
    # one; the first pass looks both up before running either.
    assert runner.runs_executed == 2
    assert type(plain) is type(spilled) is RunRecord
    assert spilled.digest == plain.digest
    assert spilled.company_configs == plain.company_configs
    # The run spilled into a private directory that is gone again.
    assert not any((tmp_path / "spill").iterdir())
    # Second pass: both answered from cache.
    hits_before = runner.cache_hits
    runner.run(specs)
    assert runner.cache_hits == hits_before + 2
