"""Tests for the lifecycle-audit report (``analysis/ledger.py``)."""

from __future__ import annotations

from repro.analysis import ledger
from repro.experiments.runner import RunRecord


class TestStoreFlows:
    def test_flows_cover_every_company(self, tiny_result):
        flows = ledger.compute_store_flows(tiny_result.store)
        assert {f.company_id for f in flows} == set(
            tiny_result.installations.keys()
        )

    def test_flows_partition_accepted(self, tiny_result):
        # white + black + filter + quarantined == accepted, per company —
        # the store-side mirror of the ledger's partition equation.
        for flow in ledger.compute_store_flows(tiny_result.store):
            assert (
                flow.white
                + flow.black
                + flow.filter_dropped
                + flow.quarantined
                == flow.accepted
            )

    def test_flows_agree_with_ledger(self, tiny_result):
        stats = tiny_result.ledger_stats
        flows = ledger.compute_store_flows(tiny_result.store)
        assert sum(f.accepted for f in flows) == stats.accepted
        assert sum(f.white for f in flows) == stats.delivered
        assert sum(f.black for f in flows) == stats.black_dropped
        assert sum(f.filter_dropped for f in flows) == stats.filter_dropped
        assert sum(f.quarantined for f in flows) == stats.quarantined_total
        assert sum(f.released for f in flows) == stats.released
        assert sum(f.expired for f in flows) == stats.expired


class TestRender:
    def test_full_report(self, tiny_result):
        out = ledger.render(tiny_result.store, tiny_result.ledger_stats)
        assert "Terminal-state mix" in out
        assert "lifecycle conservation: CONSERVED" in out
        assert "Per-company conservation verdicts" in out
        assert "Ledger vs. measurement store" in out
        # Every reconciliation row agrees on a healthy run.
        assert "NO" not in out.replace("CONSERVED", "")

    def test_store_only_mode(self, tiny_store):
        out = ledger.render(tiny_store, None)
        assert "runtime ledger verdict unavailable" in out
        assert "Per-company message flow" in out
        assert "conservation: CONSERVED" not in out

    def test_render_result_tolerates_loaded_runs(self, tiny_result):
        # A loaded record carries a store but empty metrics, so no
        # ledger_stats: render_result falls back to the store-only mode.
        loaded = RunRecord(store=tiny_result.store, info=tiny_result.info)
        assert loaded.ledger_stats is None
        out = ledger.render_result(loaded)
        assert "runtime ledger verdict unavailable" in out

    def test_render_result_full(self, tiny_result):
        out = ledger.render_result(tiny_result)
        assert "lifecycle conservation: CONSERVED" in out

    def test_stranded_table_absent_on_clean_run(self, tiny_result):
        assert ledger.build_stranded_table(tiny_result.ledger_stats) is None
