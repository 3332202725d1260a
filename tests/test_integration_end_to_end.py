"""End-to-end integration: a full simulated deployment must reproduce the
paper's headline shapes within loose bands.

The bands are deliberately wide — the test presets are small and noisy —
but they pin the *direction* of every published finding: who wins, what is
rare, what dominates.
"""

from repro.analysis import (
    challenges,
    churn,
    clustering,
    delays,
    discussion,
    engine_breakdown,
    flow,
    general_stats,
    mta_breakdown,
    reflection,
    spf_study,
    variability,
)
from repro.analysis.spf_study import ChallengeFate
from repro.core.mta_in import DropReason
from repro.core.spools import Category


class TestConservation:
    def test_every_message_has_exactly_one_fate(self, small_result):
        store = small_result.store
        accepted = sum(1 for r in store.mta if r.accepted)
        assert accepted == len(store.dispatch)
        assert len(store.mta) >= accepted

    def test_flow_conservation(self, small_store):
        assert flow.compute(small_store).conserved

    def test_challenge_outcomes_complete_after_drain(self, small_result):
        store = small_result.store
        assert len(store.challenge_outcomes) == len(store.challenges)

    def test_quarantine_accounting(self, small_result):
        quarantined = sum(
            1
            for r in small_result.store.dispatch
            if r.category is Category.GRAY and r.filter_drop is None
        )
        # After the end-of-run drain nothing is left pending: entries still
        # quarantined at the horizon carry the PENDING_AT_HORIZON status.
        assert all(
            inst.gray_spool.pending_count == 0
            for inst in small_result.installations.values()
        )
        resolved = (
            len(small_result.store.releases)
            + len(small_result.store.expiries)
            + sum(
                inst.gray_spool.total_deleted
                + inst.gray_spool.total_pending_at_horizon
                for inst in small_result.installations.values()
            )
        )
        assert resolved == quarantined

    def test_ledger_verdict_holds(self, small_result):
        stats = small_result.ledger_stats
        assert stats is not None and stats.conserved
        assert stats.accepted == stats.terminal_total
        assert stats.stranded == 0
        assert stats.leaked_challenge_slots == 0


class TestMtaShape:
    def test_unknown_recipient_dominates_drops(self, small_store):
        result = mta_breakdown.compute(small_store)
        shares = result.drop_shares
        assert shares[DropReason.UNKNOWN_RECIPIENT] > 0.5
        assert shares[DropReason.UNKNOWN_RECIPIENT] > 5 * shares[
            DropReason.UNRESOLVABLE_DOMAIN
        ]

    def test_closed_relays_drop_most_traffic(self, small_store):
        result = mta_breakdown.compute(small_store)
        assert 0.15 < result.closed_pass_rate < 0.40  # paper: 24.9 %

    def test_open_relays_pass_much_more(self, small_store):
        result = mta_breakdown.compute(small_store)
        assert result.open_pass_rate > 1.5 * result.closed_pass_rate


class TestFlowShape:
    def test_white_share_band(self, small_store):
        result = flow.compute(small_store)
        assert 15 < result.white < 60  # paper: 31/1000

    def test_gray_dominates_dispatcher(self, small_store):
        result = flow.compute(small_store)
        assert result.gray > 4 * result.white

    def test_black_spool_small(self, small_store):
        result = flow.compute(small_store)
        assert result.black < result.white

    def test_filters_drop_majority_of_gray(self, small_store):
        result = engine_breakdown.compute(small_store)
        assert 0.5 < result.filter_drop_share < 0.9

    def test_rbl_is_biggest_filter(self, small_store):
        result = engine_breakdown.compute(small_store)
        shares = result.filter_shares
        assert shares["rbl"] > shares["antivirus"]
        assert shares["reverse_dns"] > shares["antivirus"]


class TestReflectionShape:
    def test_reflection_ratio_band(self, small_store):
        stats = reflection.compute(small_store)
        assert 0.10 < stats.reflection_cr < 0.30  # paper: 19.3 %

    def test_reflection_mta_band(self, small_store):
        stats = reflection.compute(small_store)
        assert 0.02 < stats.reflection_mta < 0.12  # paper: 4.8 %

    def test_traffic_ratio_band(self, small_store):
        stats = reflection.compute(small_store)
        assert 0.01 < stats.rt_cr < 0.06  # paper: 2.5 %
        assert stats.rt_mta < stats.rt_cr

    def test_backscatter_worst_case_band(self, small_store):
        stats = reflection.compute(small_store)
        assert 0.03 < stats.beta_cr < 0.20  # paper: 8.7 %


class TestChallengeShape:
    def test_delivery_split_band(self, small_store):
        stats = challenges.compute(small_store)
        assert 0.35 < stats.delivered_share < 0.65  # paper: 49 %

    def test_nonexistent_recipient_dominates_undelivered(self, small_store):
        stats = challenges.compute(small_store)
        assert stats.nonexistent_share_of_undelivered > 0.5  # paper: 71.7 %

    def test_most_delivered_never_opened(self, small_store):
        stats = challenges.compute(small_store)
        assert stats.never_opened_share > 0.85  # paper: 94 %

    def test_solved_share_band(self, small_store):
        stats = challenges.compute(small_store)
        assert 0.01 < stats.solved_share_of_sent < 0.08  # paper: 3.5 %

    def test_attempts_never_exceed_five(self, small_store):
        stats = challenges.compute(small_store)
        assert stats.max_attempts <= 5
        # Single-attempt solves dominate (Fig. 4(b)).
        histogram = stats.attempts_histogram
        if histogram:
            assert max(histogram, key=histogram.get) == 1


class TestUserImpactShape:
    def test_inbox_mostly_instant(self, small_store):
        stats = delays.compute(small_store)
        assert stats.instant_share > 0.80  # paper: 94 %

    def test_captcha_releases_fast(self, small_store):
        stats = delays.compute(small_store)
        from repro.util.simtime import HOUR
        from repro.util.stats import cdf_at

        assert cdf_at(stats.captcha_cdf, 4 * HOUR) > 0.6

    def test_small_share_delayed_over_a_day(self, small_store):
        stats = delays.compute(small_store)
        assert stats.inbox_delayed_over_1day_share < 0.08  # paper: 0.6 %


class TestChurnShape:
    def test_low_bins_dominate(self, small_result):
        stats = churn.compute(small_result.store, small_result.info)
        # Fig. 9: the two lowest bins hold ~80 % of whitelists.
        assert stats.bin_shares[0] + stats.bin_shares[1] > 55.0
        # Monotone decreasing tail.
        assert stats.bin_shares[2] > stats.bin_shares[4]

    def test_high_churn_users_rare(self, small_result):
        stats = churn.compute(small_result.store, small_result.info)
        assert stats.share_ge_1_per_day < 0.25  # paper: 6.8 %
        assert stats.share_ge_5_per_day < 0.05  # paper: 0.2 %

    def test_additions_per_user_day_band(self, small_result):
        stats = churn.compute(small_result.store, small_result.info)
        assert 0.1 < stats.additions_per_user_day < 0.8  # paper: 0.3


class TestClusteringShape:
    def test_clusters_found(self, small_result):
        stats = clustering.compute(small_result.store, small_result.info)
        assert stats.n_clusters > 10

    def test_solving_clusters_are_minority(self, small_result):
        stats = clustering.compute(small_result.store, small_result.info)
        assert stats.clusters_with_solved < 0.3 * stats.n_clusters

    def test_low_similarity_clusters_dominate(self, small_result):
        stats = clustering.compute(small_result.store, small_result.info)
        assert len(stats.low_similarity_clusters) > len(
            stats.high_similarity_clusters
        )

    def test_spurious_deliveries_rare(self, small_result):
        stats = clustering.compute(small_result.store, small_result.info)
        # Paper: ~1 per 10,000 challenges. Band: < 1 per 1,000.
        assert stats.spurious_rate < 1e-3


class TestSpfShape:
    def test_expired_have_highest_fail_share(self, small_store):
        stats = spf_study.compute(small_store)
        assert stats.fail_share(ChallengeFate.EXPIRED) > stats.fail_share(
            ChallengeFate.SOLVED
        )

    def test_solved_fail_share_tiny(self, small_store):
        stats = spf_study.compute(small_store)
        assert stats.fail_share(ChallengeFate.SOLVED) < 0.05  # paper: 0.25 %

    def test_bad_challenge_reduction_band(self, small_store):
        stats = spf_study.compute(small_store)
        assert 0.005 < stats.bad_challenge_fail_share < 0.10  # paper: 2.5 %


class TestVariabilityShape:
    def test_reflection_not_driven_by_size(self, small_result):
        stats = variability.compute(small_result.store, small_result.info)
        assert abs(stats.correlation("users", "reflection")) < 0.6

    def test_white_captcha_positively_correlated(self, small_result):
        stats = variability.compute(small_result.store, small_result.info)
        assert stats.correlation("white", "captcha") > 0.0

    def test_white_reflection_negatively_correlated(self, small_result):
        stats = variability.compute(small_result.store, small_result.info)
        assert stats.correlation("white", "reflection") < 0.0


class TestGeneralStatsAndDiscussion:
    def test_table1_totals_consistent(self, small_result):
        stats = general_stats.compute(small_result.store, small_result.info)
        assert stats.total_incoming == len(small_result.store.mta)
        assert (
            stats.white + stats.black + stats.gray + stats.dropped_at_mta
            == stats.total_incoming
        )

    def test_emails_per_challenge_band(self, small_result):
        stats = discussion.compute(small_result.store, small_result.info)
        assert 8 < stats.emails_per_challenge < 45  # paper: 21

    def test_traffic_increase_under_2_percent(self, small_result):
        stats = discussion.compute(small_result.store, small_result.info)
        assert stats.traffic_increase < 0.02  # paper: < 1 %

    def test_render_all_reports(self, small_result):
        from repro.experiments.registry import CANONICAL_ORDER, run_all

        run_all(small_result)  # builds the shared analysis index
        warm = run_all(small_result)
        for exp_id in CANONICAL_ORDER:
            assert f"=== {exp_id} ===" in warm
        assert len(warm) > 4000
        # A cold render, from an index rebuilt off the raw records, equals
        # the warm one: the index is a cache, never a second source.
        small_result.store.drop_indices()
        assert run_all(small_result) == warm
