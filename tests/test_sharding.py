"""The sharded data plane (DESIGN.md §12): digest identity, exchange
reconciliation, conservation, spill equivalence, checkpoint round-trips.

The load-bearing property is mechanical: ``shards=N`` must produce a
measurement store byte-identical (same ``store_digest``) to ``shards=1``,
across seeds, fault weather, spill modes, and checkpoint/resume. Every
test here pins some face of that equivalence.
"""

from __future__ import annotations

import pytest

from repro.experiments.parallel import RunSpec, store_digest
from repro.experiments.registry import run_all
from repro.experiments.runner import run_simulation
from repro.net.exchange import (
    ExchangeDivergence,
    ShardExchange,
    ShardMap,
    reconcile,
)
from repro.util.metrics import execution_invariant
from repro.util.simtime import DAY


def _digest(**kwargs) -> str:
    return store_digest(run_simulation("tiny", **kwargs).store)


# -- digest identity ---------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 7, 11])
@pytest.mark.parametrize("faults", [None, "stormy"])
def test_sharded_digest_matches_unsharded(seed, faults):
    """shards=4 reproduces the single-process store byte-for-byte,
    reliable substrate and storm weather alike."""
    base = _digest(seed=seed, faults=faults)
    sharded = _digest(seed=seed, faults=faults, shards=4, shard_jobs=1)
    assert sharded == base


def test_sharded_pool_digest_matches_sequential():
    """Worker scheduling can't change the answer: the process-pool path
    merges to the same digest as the sequential in-process path."""
    sequential = _digest(seed=5, shards=2, shard_jobs=1)
    pooled = _digest(seed=5, shards=2, shard_jobs=2)
    assert pooled == sequential


@pytest.mark.parametrize("seed", [3, 11])
def test_sharded_scenario_digest_matches_unsharded(seed):
    """Scenario runs shard too: attack planning replays identically on
    every replica, only the victim's owner shard delivers, and the merged
    store still matches shards=1 byte-for-byte."""
    base = _digest(seed=seed, scenario="captcha-farm")
    sharded = _digest(seed=seed, scenario="captcha-farm", shards=4, shard_jobs=1)
    assert sharded == base


# -- the exchange ------------------------------------------------------------


def test_shard_map_partitions_every_company():
    world = run_simulation("tiny", seed=7).world
    shard_map = ShardMap.from_world(world, 3)
    owners = shard_map.owners
    assert set(owners) == {c.company_id for c in world.companies}
    assert set(owners.values()) <= {0, 1, 2}
    # Deterministic: recomputing from the same world gives the same map.
    assert ShardMap.from_world(world, 3).owners == owners


def test_exchange_manifests_reconcile_and_diverge():
    def fill(exchange, rows):
        exchange.open_epoch(0)
        for t, msg_id, owner in rows:
            exchange.record(t, msg_id, owner)
        exchange.close_epoch()

    rows = [(0.5, 1, 0), (1.5, 2, 1), (2.5, 3, 0)]
    a = ShardExchange(n_shards=2, shard_index=0)
    b = ShardExchange(n_shards=2, shard_index=1)
    fill(a, rows)
    fill(b, rows)
    merged = reconcile([a.manifests, b.manifests])
    assert merged == a.manifests
    assert a.local_rows == 2 and a.remote_rows == 1
    assert b.local_rows == 1 and b.remote_rows == 2

    # One shard seeing a different stream for any (owner, epoch) cell is
    # refused before any store merging could happen.
    c = ShardExchange(n_shards=2, shard_index=1)
    fill(c, [(0.5, 1, 0), (1.5, 99, 1), (2.5, 3, 0)])
    with pytest.raises(ExchangeDivergence):
        reconcile([a.manifests, c.manifests])


def test_sharded_result_reports_reconciled_exchange():
    result = run_simulation("tiny", seed=7, shards=2, shard_jobs=1)
    stats = result.shard_stats
    assert stats.n_shards == 2
    assert stats.exchange_rows == len(result.store.mta)
    assert len(stats.per_shard) == 2
    assert sum(p.local_rows for p in stats.per_shard) == stats.exchange_rows
    # Owners cover the whole deployment, one shard per company.
    assert len(stats.owners) == result.info.n_companies


# -- conservation across shards ---------------------------------------------


def test_audited_sharded_run_conserves():
    """Every shard enforces its own ledger; the aggregate sums to a
    conserving whole."""
    result = run_simulation("tiny", seed=7, audit=True, shards=3, shard_jobs=1)
    ledger = result.ledger_stats
    assert ledger.audit and ledger.conserved
    assert ledger.accepted == ledger.terminal_total
    assert len(ledger.per_company) == result.info.n_companies
    assert ledger.accepted == sum(s.accepted for s in ledger.per_company)
    fault = result.fault_stats
    assert fault.conserved


def test_audit_flag_survives_a_shard_without_companies():
    """Seven shards over tiny's six companies leave one shard owning
    none; the merged run still reports that it audited."""
    result = run_simulation("tiny", seed=7, audit=True, shards=7, shard_jobs=1)
    assert 0 in [perf.companies for perf in result.shard_stats.per_shard]
    assert result.ledger_stats.audit is True


# -- metrics ≡ unsharded -----------------------------------------------------


@pytest.mark.parametrize("seed, weather", [
    (7, {}), (3, {"faults": "stormy"}), (5, {"crashes": "flaky"}),
])
def test_sharded_metrics_match_unsharded(seed, weather):
    """The merged map equals the single-process run's name for name,
    except the execution-variant names (DESIGN.md "Run metrics"); a new
    counter is pinned by default."""
    base = run_simulation("tiny", seed=seed, **weather)
    sharded = run_simulation("tiny", seed=seed, shards=2, shard_jobs=1,
                             **weather)
    assert execution_invariant(sharded.metrics) == execution_invariant(
        base.metrics
    )


# -- spill ≡ in-memory -------------------------------------------------------


def test_spilled_store_digest_and_report_match_in_memory(tmp_path):
    """Streaming chunks to disk changes where bytes live, not what they
    say: digest and full rendered report are identical."""
    base = run_simulation("tiny", seed=7)
    spilled = run_simulation(
        "tiny", seed=7, spill_dir=str(tmp_path), spill_chunk_rows=256
    )
    assert spilled.metrics["memory.store_spilled_bytes"] > 0
    assert store_digest(spilled.store) == store_digest(base.store)
    assert run_all(spilled) == run_all(base)


def test_sharded_spilled_run_matches(tmp_path):
    """Shards + spill composed: the merged store is served from lazy
    per-shard chunk views and still reproduces the plain run."""
    base = run_simulation("tiny", seed=3)
    sharded = run_simulation(
        "tiny", seed=3, shards=2, shard_jobs=1,
        spill_dir=str(tmp_path), spill_chunk_rows=256,
    )
    assert store_digest(sharded.store) == store_digest(base.store)
    assert run_all(sharded) == run_all(base)


# -- checkpoint/restore ------------------------------------------------------


def test_sharded_checkpoint_restore_roundtrip(tmp_path):
    """A sharded run snapshots per shard; resuming every shard from its
    newest snapshot reproduces the uninterrupted merged store."""
    root = tmp_path / "ckpt"
    full = run_simulation(
        "tiny", seed=7, shards=2, shard_jobs=1,
        checkpoint_every=3 * DAY, checkpoint_dir=str(root),
    )
    assert full.metrics["checkpoint.written"] >= 2
    assert (root / "shard-0").is_dir() and (root / "shard-1").is_dir()
    resumed = run_simulation(
        resume_from=str(root), shards=2, shard_jobs=1
    )
    assert store_digest(resumed.store) == store_digest(full.store)


# -- parallel-runner integration --------------------------------------------


def test_sharded_spec_summary_matches_plain(tmp_path):
    """A sharded, spilled RunSpec yields a summary digest-identical to
    the plain spec's (and is cacheable: the store is fully in memory by
    the time the spill directory is gone)."""
    from repro.experiments.parallel import ParallelRunner, RunCache

    runner = ParallelRunner(jobs=1, cache=RunCache(tmp_path / "cache"))
    spill_dir = str(tmp_path / "spill")
    plain, sharded = runner.run(
        [
            RunSpec(preset="tiny", seed=5),
            RunSpec(preset="tiny", seed=5, shards=2, spill_dir=spill_dir),
        ]
    )
    assert not plain.failed and not sharded.failed
    assert sharded.digest == plain.digest
    assert sharded.company_configs == plain.company_configs
    # The run spilled into a private directory that is gone again.
    assert not any((tmp_path / "spill").iterdir())
    # Second pass: both answered from cache.
    hits_before = runner.cache_hits
    runner.run(
        [
            RunSpec(preset="tiny", seed=5),
            RunSpec(preset="tiny", seed=5, shards=2, spill_dir=spill_dir),
        ]
    )
    assert runner.cache_hits == hits_before + 2
