"""Message-lifecycle conservation: every accepted message reaches exactly
one terminal disposition.

The invariant: ``accepted == delivered + black_dropped + filter_dropped +
released + deleted + expired + pending_at_horizon`` for every company,
regardless of the seed, the fault plan, or where the horizon falls. These
tests run full simulations with the continuous audit enabled (so any
illegal edge raises at the offending call, not just at the end-of-run
check) and pin the output-invariance properties: audit mode must not
change what the run produces, and a cached substrate must balance exactly
like an uncached one.
"""

from __future__ import annotations

import pytest

from repro.blacklistd.service import DnsblService
from repro.experiments import run_simulation
from repro.experiments.parallel import store_digest
from repro.net.dns import Resolver
from repro.net.internet import Internet


def _assert_conserved(result):
    stats = result.ledger_stats
    assert stats is not None
    assert stats.conserved
    assert stats.accepted == stats.terminal_total
    assert stats.stranded == 0
    assert stats.leaked_challenge_slots == 0
    # The per-company rows sum to the totals — no company is double
    # counted or missing from the rollup.
    assert stats.accepted == sum(
        snap.accepted for snap in stats.per_company
    )


class TestConservationAcrossSeedsAndWeather:
    @pytest.mark.parametrize("seed", [3, 5, 7])
    @pytest.mark.parametrize("faults", [None, "mild", "stormy"])
    def test_audited_runs_conserve(self, seed, faults):
        result = run_simulation("tiny", seed=seed, faults=faults, audit=True)
        _assert_conserved(result)
        assert result.ledger_stats.audit is True

    def test_unaudited_run_still_checked_at_end(self):
        # Counters-only mode skips per-message tracking but the partition
        # equation is still verified once at end of run.
        result = run_simulation("tiny", seed=7)
        _assert_conserved(result)
        assert result.ledger_stats.audit is False

    def test_quarantine_residual_matches_spools(self):
        result = run_simulation("tiny", seed=7, audit=True)
        stats = result.ledger_stats
        total_at_horizon = sum(
            inst.gray_spool.total_pending_at_horizon
            for inst in result.installations.values()
        )
        assert stats.pending_at_horizon == total_at_horizon
        assert stats.quarantined_total == (
            stats.released
            + stats.deleted
            + stats.expired
            + stats.pending_at_horizon
        )


class TestAuditIsOutputInvariant:
    def test_audit_on_equals_audit_off(self):
        # The auditor observes; it must never steer. Byte-identical store
        # output is the strongest form of that claim.
        baseline = run_simulation("tiny", seed=7)
        audited = run_simulation("tiny", seed=7, audit=True)
        assert store_digest(audited.store) == store_digest(baseline.store)


class TestCachedEqualsUncachedWithAuditOn:
    def test_store_digests_identical(self, monkeypatch):
        cached = run_simulation("tiny", seed=3, faults="stormy", audit=True)
        _assert_conserved(cached)

        monkeypatch.setattr(Resolver, "CACHE_ENABLED", False)
        monkeypatch.setattr(DnsblService, "CACHE_ENABLED", False)
        monkeypatch.setattr(Internet, "CACHE_ENABLED", False)
        uncached = run_simulation("tiny", seed=3, faults="stormy", audit=True)
        _assert_conserved(uncached)

        assert store_digest(cached.store) == store_digest(uncached.store)
        # The ledger totals agree too — the lifecycle mix is a pure
        # function of (seed, settings), not of cache hit patterns.
        assert cached.ledger_stats.accepted == uncached.ledger_stats.accepted
        assert (
            cached.ledger_stats.pending_at_horizon
            == uncached.ledger_stats.pending_at_horizon
        )


class TestConservationUnderBatchedDelivery:
    """PR 6's batched data plane must be invisible to the lifecycle
    ledger: audited batched runs balance, and flipping batching off
    changes no output byte."""

    @pytest.mark.parametrize("seed", [3, 7])
    def test_audited_batched_run_conserves(self, seed):
        result = run_simulation(
            "tiny", seed=seed, audit=True, batch_delivery=True
        )
        _assert_conserved(result)
        assert result.ledger_stats.audit is True

    def test_batched_equals_unbatched_with_audit_on(self):
        batched = run_simulation(
            "tiny", seed=5, audit=True, batch_delivery=True
        )
        unbatched = run_simulation(
            "tiny", seed=5, audit=True, batch_delivery=False
        )
        _assert_conserved(batched)
        _assert_conserved(unbatched)
        assert store_digest(batched.store) == store_digest(unbatched.store)
