"""The pluggable filter chain: spec, baselines-in-chain, determinism.

Covers the chain end to end: `FilterChainSpec` parsing and validation,
the naive-Bayes classifier and the online naive-Bayes and
sender-reputation chain members, order-dependent chain counters, chain
resolution in the run's cache key, chain-only ablations leaving the
per-company filter tuning alone, and the digest invariants
(``chain=None`` ≡ the ``default`` spec, same-seed reruns identical).
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.config import (
    CHAIN_PRESETS,
    DEFAULT_CHAIN_MEMBERS,
    FilterChainSpec,
)
from repro.core.filters import FilterChain, SpamFilter
from repro.analysis.store import LogStore
from repro.core.filters.content import NaiveBayesFilter, OnlineNaiveBayesFilter
from repro.core.filters.reputation import SenderReputationFilter
from repro.core.message import MessageKind, make_message
from repro.experiments.parallel import RunSpec, store_digest
from repro.experiments.runner import run_simulation
from repro.util.simtime import DAY

from tests import recordfactory as rf


# -- FilterChainSpec ---------------------------------------------------------


class TestFilterChainSpec:
    def test_default_is_the_product_chain(self):
        assert FilterChainSpec().members == DEFAULT_CHAIN_MEMBERS

    def test_parse_passthrough_and_none(self):
        spec = FilterChainSpec(members=("content",))
        assert FilterChainSpec.parse(spec) is spec
        assert FilterChainSpec.parse(None) is None

    def test_parse_preset_names(self):
        for name, members in CHAIN_PRESETS.items():
            assert FilterChainSpec.parse(name).members == members

    def test_parse_comma_list(self):
        spec = FilterChainSpec.parse("antivirus, content")
        assert spec.members == ("antivirus", "content")

    def test_unknown_member_rejected(self):
        with pytest.raises(ValueError, match="unknown filter member"):
            FilterChainSpec.parse("antivirus,bogofilter")

    def test_bad_reputation_threshold_rejected(self):
        with pytest.raises(ValueError, match="reputation_threshold"):
            FilterChainSpec(reputation_threshold=1.5)

    def test_spec_is_hashable_with_stable_repr(self):
        a = FilterChainSpec.parse("hybrid")
        b = FilterChainSpec.parse("hybrid")
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    def test_members_list_coerced_to_tuple(self):
        assert FilterChainSpec(members=["content"]).members == ("content",)


# -- chain order dependence --------------------------------------------------


class _Stub(SpamFilter):
    def __init__(self, name, drops):
        self.name = name
        self._drops = drops
        self.calls = 0

    def should_drop(self, message, now):
        self.calls += 1
        return self._drops


def test_chain_counters_depend_on_order():
    """Short-circuiting means the first dropping filter takes the credit;
    reversing the chain moves every drop to the other counter."""
    msg = make_message(0.0, "s@x.example", "u@c0.example", subject="hi")

    eager, lazy = _Stub("eager", True), _Stub("lazy", True)
    chain = FilterChain([eager, lazy])
    for _ in range(5):
        chain.first_drop(msg, now=0.0)
    assert chain.drops_by_filter == {"eager": 5, "lazy": 0}
    assert lazy.calls == 0  # never consulted behind a dropper
    assert chain.passed == 0

    eager2, lazy2 = _Stub("eager", True), _Stub("lazy", True)
    reversed_chain = FilterChain([lazy2, eager2])
    for _ in range(5):
        reversed_chain.first_drop(msg, now=0.0)
    assert reversed_chain.drops_by_filter == {"lazy": 5, "eager": 0}


def test_chain_passes_count_only_full_passes():
    drop, pass_ = _Stub("drop", False), _Stub("pass", False)
    chain = FilterChain([drop, pass_])
    msg = make_message(0.0, "s@x.example", "u@c0.example")
    assert chain.first_drop(msg, now=0.0) is None
    assert chain.passed == 1


# -- naive Bayes -------------------------------------------------------------


class TestNaiveBayes:
    def _trained(self):
        nb = NaiveBayesFilter()
        nb.train(
            [
                ("cheap meds online pharmacy", True),
                ("exclusive offer limited time", True),
                ("replica watches discount", True),
                ("meeting notes tomorrow agenda", False),
                ("project status report attached", False),
                ("lunch plans this weekend", False),
            ]
        )
        return nb

    def test_classifies_obvious_spam(self):
        assert self._trained().classify("cheap pharmacy meds")

    def test_classifies_obvious_ham(self):
        assert not self._trained().classify("meeting agenda attached")

    def test_log_odds_sign_matches_classification(self):
        nb = self._trained()
        for subject in ("cheap meds", "status report"):
            assert nb.classify(subject) == (nb.spam_log_odds(subject) > 0)

    def test_unknown_tokens_fall_back_to_prior(self):
        nb = NaiveBayesFilter()
        # Balanced token totals so unknown tokens are class-neutral and
        # the document prior (2 ham docs vs 1 spam doc) decides.
        nb.train(
            [
                ("spam spam spam spam", True),
                ("ham ham", False),
                ("ham two", False),
            ]
        )
        assert not nb.classify("completely novel words")

    def test_untrained_raises(self):
        nb = NaiveBayesFilter()
        with pytest.raises(RuntimeError):
            nb.classify("anything")
        nb.train([("only spam", True)])
        with pytest.raises(RuntimeError):
            nb.classify("still missing ham examples")

    def test_incremental_training(self):
        nb = NaiveBayesFilter()
        first = nb.train([("cheap meds", True)])
        second = nb.train([("meeting notes", False)])
        assert first.spam_messages == 1
        assert second.ham_messages == 1
        assert nb.trained

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            NaiveBayesFilter(smoothing=0.0)

    def test_threshold_shifts_decisions(self):
        strict = self._trained()
        lenient = self._trained()
        lenient.threshold = 50.0
        assert strict.classify("cheap meds")
        assert not lenient.classify("cheap meds")

    def test_train_from_records(self):
        store = LogStore()
        rf.dispatch(store, subject="cheap meds pharmacy", kind=MessageKind.SPAM)
        rf.dispatch(store, subject="meeting notes agenda", kind=MessageKind.LEGIT)
        nb = NaiveBayesFilter()
        summary = nb.train_from_records(store.dispatch)
        assert summary.spam_messages == 1
        assert summary.ham_messages == 1

    @given(
        st.lists(
            st.tuples(
                st.text(
                    alphabet="abcdefg ", min_size=1, max_size=30
                ).filter(str.strip),
                st.booleans(),
            ),
            min_size=2,
            max_size=40,
        ).filter(
            lambda pairs: any(s for _, s in pairs)
            and any(not s for _, s in pairs)
        )
    )
    def test_never_crashes_and_returns_bool(self, pairs):
        nb = NaiveBayesFilter()
        nb.train(pairs)
        for subject, _ in pairs:
            assert isinstance(nb.classify(subject), bool)




SPAMMY = "cheap meds online pharmacy discount"
HAMMY = "meeting notes tomorrow agenda attached"


def _warm(filter_, repeats=10):
    for i in range(repeats):
        filter_.should_drop(
            make_message(0.0, "a@x.example", "u@c0.example",
                         subject=SPAMMY, kind=MessageKind.SPAM),
            now=0.0,
        )
        filter_.should_drop(
            make_message(0.0, "b@y.example", "u@c0.example",
                         subject=HAMMY, kind=MessageKind.LEGIT),
            now=0.0,
        )


class TestOnlineNaiveBayes:
    def test_never_drops_during_warmup(self):
        nb = OnlineNaiveBayesFilter(warmup_days=3.0)
        _warm(nb)
        spam = make_message(0.0, "c@z.example", "u@c0.example",
                            subject=SPAMMY, kind=MessageKind.SPAM)
        assert nb.should_drop(spam, now=2.9 * DAY) is False
        assert nb.should_drop(spam, now=3.0 * DAY) is True
        assert nb.scored == 1 and nb.warmup_passes > 0

    def test_never_drops_untrained_even_past_warmup(self):
        nb = OnlineNaiveBayesFilter(warmup_days=0.0)
        spam = make_message(0.0, "c@z.example", "u@c0.example",
                            subject=SPAMMY, kind=MessageKind.SPAM)
        # First sighting: single-class model, must abstain (and train).
        assert nb.should_drop(spam, now=10 * DAY) is False

    def test_scores_before_training_on_the_message(self):
        """A message never trains the model that judges it: the first
        hammy message after warm-up is judged by the old model."""
        nb = OnlineNaiveBayesFilter(warmup_days=0.0)
        _warm(nb, repeats=3)
        docs_before = nb.classifier._spam_docs + nb.classifier._ham_docs
        ham = make_message(0.0, "b@y.example", "u@c0.example",
                           subject=HAMMY, kind=MessageKind.LEGIT)
        assert nb.should_drop(ham, now=DAY) is False
        assert nb.classifier._spam_docs + nb.classifier._ham_docs == docs_before + 1

    def test_newsletters_train_as_ham(self):
        nb = OnlineNaiveBayesFilter(warmup_days=0.0)
        news = make_message(0.0, "n@list.example", "u@c0.example",
                            subject="weekly digest issue",
                            kind=MessageKind.NEWSLETTER)
        nb.should_drop(news, now=0.0)
        assert nb.classifier._ham_docs == 1 and nb.classifier._spam_docs == 0


def test_cached_log_odds_match_recomputed_reference():
    """Regression for the O(V)-per-call bug: the incrementally maintained
    totals must reproduce the from-scratch Laplace computation exactly."""
    import math

    nb = NaiveBayesFilter()
    nb.train([
        ("cheap meds online pharmacy", True),
        ("exclusive offer limited time", True),
        ("meeting notes tomorrow agenda", False),
    ])
    nb.train([("project status report attached", False)])  # second batch

    def reference(subject):
        spam_total = sum(nb._spam_tokens.values())
        ham_total = sum(nb._ham_tokens.values())
        vocab = len(set(nb._spam_tokens) | set(nb._ham_tokens)) or 1
        odds = math.log(nb._spam_docs) - math.log(nb._ham_docs)
        for token in subject.lower().split():
            p_spam = (nb._spam_tokens.get(token, 0) + 1.0) / (spam_total + vocab)
            p_ham = (nb._ham_tokens.get(token, 0) + 1.0) / (ham_total + vocab)
            odds += math.log(p_spam) - math.log(p_ham)
        return odds

    for subject in (
        "cheap meds", "status report", "never seen tokens here",
        "offer meeting", SPAMMY, HAMMY,
    ):
        assert nb.spam_log_odds(subject) == pytest.approx(
            reference(subject), abs=1e-12
        )
    # The caches really are maintained, not recomputed.
    assert nb._spam_token_total == sum(nb._spam_tokens.values())
    assert nb._ham_token_total == sum(nb._ham_tokens.values())
    assert nb._vocab == set(nb._spam_tokens) | set(nb._ham_tokens)


# -- sender reputation -------------------------------------------------------


class TestSenderReputation:
    def _spam(self, t=0.0, sender="s@spam.example", ip="203.0.113.9"):
        return make_message(t, sender, "u@c0.example", subject="x",
                            client_ip=ip, kind=MessageKind.SPAM)

    def test_abstains_below_min_observations(self):
        rep = SenderReputationFilter(min_observations=6)
        for _ in range(2):  # 2 messages x 2 keys = 4 observations
            assert rep.should_drop(self._spam(), now=0.0) is False
        assert rep.abstained == 2 and rep.dropped == 0

    def test_drops_spammy_history(self):
        rep = SenderReputationFilter(min_observations=6, threshold=0.9)
        for _ in range(3):
            rep.should_drop(self._spam(), now=0.0)
        assert rep.should_drop(self._spam(), now=1.0) is True

    def test_history_outside_window_is_forgotten(self):
        rep = SenderReputationFilter(window_days=1.0, min_observations=6)
        for _ in range(5):
            rep.should_drop(self._spam(t=0.0), now=0.0)
        # Two days later the window is empty again: abstain.
        assert rep.should_drop(self._spam(), now=2 * DAY) is False

    def test_ham_history_clears_the_sender(self):
        rep = SenderReputationFilter(min_observations=4, threshold=0.9)
        for kind in (MessageKind.LEGIT, MessageKind.LEGIT, MessageKind.SPAM):
            rep.should_drop(
                make_message(0.0, "s@mixed.example", "u@c0.example",
                             subject="x", client_ip="198.51.100.7", kind=kind),
                now=0.0,
            )
        # 6 observations, 2 spam -> ratio 1/3 < 0.9: pass.
        assert rep.should_drop(
            make_message(0.0, "s@mixed.example", "u@c0.example", subject="x",
                         client_ip="198.51.100.7", kind=MessageKind.SPAM),
            now=0.0,
        ) is False

    def test_null_sender_judged_on_network_alone(self):
        rep = SenderReputationFilter(min_observations=3, threshold=0.9)
        for _ in range(3):
            rep.should_drop(
                make_message(0.0, "", "u@c0.example", subject="x",
                             client_ip="203.0.113.9", kind=MessageKind.SPAM),
                now=0.0,
            )
        assert rep.should_drop(
            make_message(0.0, "", "u@c0.example", subject="x",
                         client_ip="203.0.113.50", kind=MessageKind.SPAM),
            now=0.0,
        ) is True  # same /24

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SenderReputationFilter(window_days=0)
        with pytest.raises(ValueError):
            SenderReputationFilter(threshold=0.0)
        with pytest.raises(ValueError):
            SenderReputationFilter(min_observations=0)


# -- end-to-end digest invariants -------------------------------------------


def test_default_spec_build_matches_legacy_build():
    """chain=None resolves to the ``default`` spec: byte-identical
    stores (the goldens pin what that chain produces)."""
    legacy = run_simulation("tiny", seed=7)
    declarative = run_simulation("tiny", seed=7, chain=FilterChainSpec())
    assert store_digest(declarative.store) == store_digest(legacy.store)


def test_hybrid_chain_run_is_deterministic_and_counts_baseline_drops():
    first = run_simulation("tiny", seed=11, chain="hybrid")
    second = run_simulation("tiny", seed=11, chain="hybrid")
    assert store_digest(first.store) == store_digest(second.store)
    chain = next(iter(first.installations.values())).filter_chain
    assert set(chain.drops_by_filter) == {
        "antivirus", "reverse_dns", "rbl", "content", "reputation",
    }
    # The baselines actually participate in the live chain.
    total_baseline_drops = sum(
        inst.filter_chain.drops_by_filter["content"]
        + inst.filter_chain.drops_by_filter["reputation"]
        for inst in first.installations.values()
    )
    assert total_baseline_drops > 0
    # No content drop before the warm-up elapses.
    warmup = FilterChainSpec().content_warmup_days * DAY
    for record in first.store.dispatch:
        if record.filter_drop == "content":
            assert record.t >= warmup


def test_chain_notations_share_one_cache_key():
    """None, the preset name and the resolved spec are one run, so one
    cache entry; a different chain is a different key."""
    keys = {
        RunSpec(preset="tiny", seed=3, chain=chain).cache_key()
        for chain in (None, "default", FilterChainSpec())
    }
    assert len(keys) == 1
    hybrid = RunSpec(preset="tiny", seed=3, chain="hybrid")
    assert hybrid.cache_key() not in keys
    assert (
        hybrid.cache_key()
        != RunSpec(preset="tiny", seed=3, chain="naive-bayes").cache_key()
    )
    assert (
        hybrid.cache_key()
        == RunSpec(
            preset="tiny", seed=3, chain=FilterChainSpec.parse("hybrid")
        ).cache_key()
    )


def test_chain_only_ablation_keeps_per_company_filter_tuning(small_result):
    """An ablation that changes only the chain changes only the chain:
    every company keeps its antivirus rate and its weighted RBL
    provider, so the provider mix does not collapse onto one list."""
    default = small_result
    ablated = run_simulation(
        "small", seed=11, chain="antivirus,reverse_dns,rbl,spf"
    )

    def tuning(result):
        return {
            company_id: installation.config.filters
            for company_id, installation in result.installations.items()
        }

    assert tuning(ablated) == tuning(default)
    assert len({f.rbl_provider for f in tuning(default).values()}) > 1
    chain = next(iter(ablated.installations.values())).filter_chain
    assert [f.name for f in chain.filters] == [
        "antivirus", "reverse_dns", "rbl", "spf",
    ]


def test_scenario_chain_key_and_explicit_override(tmp_path):
    (tmp_path / "chained.yaml").write_text(
        "description: chain scenario\n"
        "chain:\n"
        "  members: [content]\n"
        "  content_warmup_days: 1.0\n",
        encoding="utf-8",
    )
    from repro.scenarios import load_scenario

    spec = load_scenario(str(tmp_path / "chained.yaml"))
    assert spec.chain_spec().members == ("content",)
    assert spec.chain_spec().content_warmup_days == 1.0

    result = run_simulation("tiny", seed=7, scenario=spec)
    chain = next(iter(result.installations.values())).filter_chain
    assert set(chain.drops_by_filter) == {"content"}

    overridden = run_simulation(
        "tiny", seed=7, scenario=spec, chain="reputation"
    )
    chain = next(iter(overridden.installations.values())).filter_chain
    assert set(chain.drops_by_filter) == {"reputation"}
