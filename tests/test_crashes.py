"""Crash-fault injection: the product survives component crashes with
zero message loss — and the oracles actually catch losses when the
durability model is deliberately lossy.

Two conservation oracles cover the two loss classes:

* the **inbound lifecycle ledger** (raises :class:`LedgerError`
  unconditionally at end of run) catches quarantine-store losses —
  a gray-spool entry that vanishes leaves its accepted message with no
  terminal disposition;
* **outbound delivery conservation** (``fault_stats.conserved``) catches
  in-flight mail dropped from a crashed outbound MTA's queue.
"""

import pytest

from repro.core.ledger import LedgerError
from repro.experiments.parallel import (
    RunSpec,
    run_specs,
    store_digest,
)
from repro.experiments.runner import RunRecord, run_simulation
from repro.net.crashes import (
    CRASH_PRESETS,
    COMPONENTS,
    CrashSettings,
    JOURNALED,
    LOSSY,
    get_crash_preset,
)
from repro.util.simtime import HOUR, MINUTE

#: The acceptance grid: flaky components + continuous audit, three seeds.
SEEDS = (3, 5, 7)


class TestZeroLossUnderCrashes:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_flaky_audit_conserves_every_message(self, seed):
        # Completing at all is the first assertion: the continuous
        # auditor raises LedgerError on any violated transition.
        result = run_simulation("tiny", seed=seed, crashes="flaky", audit=True)
        metrics = result.metrics
        assert metrics["crashes.enabled"]
        assert metrics["crashes.crashes"] > 0, "flaky preset must crash things"
        assert metrics["crashes.lost"] == 0
        assert metrics["crashes.journal_mismatches"] == 0
        assert result.ledger_stats.conserved
        assert result.fault_stats.conserved

    def test_crashes_off_is_byte_identical_to_no_crash_plan(self):
        plain = run_simulation("tiny", seed=7)
        off = run_simulation("tiny", seed=7, crashes="off")
        assert store_digest(off.store) == store_digest(plain.store)
        assert not off.metrics["crashes.enabled"]
        assert off.metrics["crashes.crashes"] == 0

    def test_crash_records_reach_the_store(self):
        result = run_simulation("tiny", seed=7, crashes="flaky")
        assert len(result.store.crashes) == result.metrics["crashes.crashes"]
        components = {record.component for record in result.store.crashes}
        assert components <= set(COMPONENTS)


class TestLossyDurability:
    """The zero-loss verdict is earned, not asserted: turn journaling
    off and the oracles must catch the resulting losses."""

    def test_lossy_gray_spool_violates_the_ledger(self):
        settings = CrashSettings(
            crashes_per_component_month=3.0,
            downtime_range=(10 * MINUTE, 4 * HOUR),
            durability=LOSSY,
            lossy_window=12 * HOUR,
        )
        with pytest.raises(LedgerError, match="conservation"):
            run_simulation("tiny", seed=7, crashes=settings, audit=True)

    def test_lossy_mta_breaks_outbound_conservation(self):
        settings = CrashSettings(
            crashes_per_component_month=3.0,
            downtime_range=(10 * MINUTE, 4 * HOUR),
            durability=LOSSY,
            lossy_window=10 * MINUTE,
        )
        result = run_simulation("tiny", seed=7, crashes=settings)
        assert result.metrics["crashes.lost"] > 0
        assert not result.fault_stats.conserved


class TestSettingsValidation:
    def test_presets_exist_and_default_to_journaled(self):
        assert set(CRASH_PRESETS) == {"off", "rare", "flaky"}
        assert not CRASH_PRESETS["off"].enabled
        assert CRASH_PRESETS["flaky"].durability == JOURNALED

    def test_unknown_preset_is_rejected(self):
        with pytest.raises(KeyError, match="no-such"):
            get_crash_preset("no-such")
        with pytest.raises(KeyError):
            run_simulation("tiny", seed=3, crashes="no-such")

    def test_unknown_durability_rejected(self):
        with pytest.raises(ValueError, match="durability"):
            CrashSettings(durability="hopeful")

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError, match="components"):
            CrashSettings(components=("dispatcher", "mainframe"))


class TestFaultComposition:
    """Network weather + component crashes + audit, together."""

    def test_stormy_flaky_audit_conserves_across_seeds(self, tmp_path):
        specs = [
            RunSpec("tiny", seed=seed, faults="stormy", crashes="flaky",
                    audit=True)
            for seed in SEEDS
        ]
        # First pass computes (audited: any lifecycle violation raises
        # inside the worker and would surface as a RunFailure).
        uncached = run_specs(specs, jobs=1, cache_dir=tmp_path / "runs")
        assert all(isinstance(s, RunRecord) for s in uncached)
        # Second pass must be answered from the cache, byte-identically.
        cached = run_specs(specs, jobs=1, cache_dir=tmp_path / "runs")
        assert [s.digest for s in cached] == [s.digest for s in uncached]
        assert all(store_digest(s.store) == s.digest for s in cached)
