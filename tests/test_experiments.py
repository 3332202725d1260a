"""Unit tests for the runner and the experiment registry."""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment, run_simulation
from repro.experiments.registry import CANONICAL_ORDER
from repro.workload.scale import ScaleConfig, get_preset, preset_names


class TestScalePresets:
    def test_known_presets(self):
        assert set(preset_names()) >= {"tiny", "small", "bench", "paper"}

    def test_unknown_preset_raises_with_hint(self):
        with pytest.raises(KeyError) as excinfo:
            get_preset("gigantic")
        assert "tiny" in str(excinfo.value)

    def test_bench_matches_paper_deployment_shape(self):
        bench = get_preset("bench")
        assert bench.n_companies == 47
        assert bench.open_relays == 13

    def test_presets_ordered_by_size(self):
        tiny, small, bench = (
            get_preset(n) for n in ("tiny", "small", "bench")
        )
        assert tiny.total_users < small.total_users < bench.total_users


class TestRunner:
    def test_accepts_scale_config_object(self):
        scale = ScaleConfig(
            name="micro",
            n_companies=2,
            open_relays=1,
            total_users=12,
            n_days=3,
            volume_scale=0.3,
            ext_domains=20,
            dead_domains=10,
            unresolvable_domains=8,
            trap_domains_per_service=1,
            traps_per_domain=4,
            innocent_pool_size=50,
            dnsbl_threshold_scale=0.5,
            min_cluster_size=3,
            campaign_rate_scale=0.3,
        )
        result = run_simulation(scale, seed=3)
        assert result.info.n_companies == 2
        assert len(result.store.mta) > 0

    def test_result_fields(self, tiny_result):
        assert tiny_result.seed == 7
        assert tiny_result.wall_seconds > 0
        assert tiny_result.info.horizon_days == 10.0
        assert len(tiny_result.installations) == 6

    def test_monitor_probed_all_server_ips(self, tiny_result):
        probed = {p.ip for p in tiny_result.store.probes}
        expected = {
            inst.challenge_mta.ip
            for inst in tiny_result.installations.values()
        } | {
            inst.user_mta.ip for inst in tiny_result.installations.values()
        }
        assert probed == expected

    def test_whitelists_seeded_before_run(self, tiny_result):
        # Seeded entries exist but generated no change records.
        from repro.core.whitelist import WhitelistSource

        sources = {c.source for c in tiny_result.store.whitelist_changes}
        assert WhitelistSource.SEED not in sources


class TestRegistry:
    def test_every_design_experiment_registered(self):
        expected = {
            "fig1", "tab_drop", "fig2", "fig3", "tab1", "tab1_daily",
            "fig4a", "fig4b", "sec31", "sec32", "sec33", "fig5", "fig6",
            "sec41", "fig7", "fig8", "sec42", "fig9", "sec43", "fig10",
            "fig11", "sec51", "fig12", "sec6", "faults", "audit",
            "recovery", "verdicts", "frontier",
        }
        assert set(EXPERIMENTS) == expected

    def test_canonical_order_ids_exist(self):
        assert set(CANONICAL_ORDER) <= set(EXPERIMENTS)

    def test_unknown_experiment_raises(self, tiny_result):
        with pytest.raises(KeyError):
            run_experiment("fig99", tiny_result)

    # frontier is excluded: its renderer is a cross-run sweep (135 tiny
    # simulations), far too heavy for tier-1 — tests/test_frontier.py
    # covers its rendering on stubbed runs, `repro check frontier` the
    # rest.
    @pytest.mark.parametrize(
        "exp_id", sorted(set(EXPERIMENTS) - {"frontier"})
    )
    def test_each_experiment_renders(self, exp_id, tiny_result):
        out = run_experiment(exp_id, tiny_result)
        assert isinstance(out, str)
        assert (
            "measured" in out
            or "Fig" in out
            or "Sec" in out
            or "fault" in out
            or "conservation" in out
            or "crash" in out
            or "scenario" in out
        )
