"""Unit tests for the trace generator, run over a short window."""

import pytest

from repro.core.engine import CompanyInstallation
from repro.core.message import MessageKind, SenderClass
from repro.core.mta_in import DropReason, MtaIn
from repro.core.spools import Category
from repro.experiments import run_simulation
from repro.experiments.parallel import store_digest
from repro.util.metrics import execution_invariant
from repro.util.simtime import day_of
from repro.workload.generator import TraceGenerator


@pytest.fixture(scope="module")
def result():
    # A dedicated 10-day tiny run for generator-level assertions.
    return run_simulation("tiny", seed=13)


class TestTrafficMix:
    def test_all_streams_present(self, result):
        kinds = {r.kind for r in result.store.dispatch}
        assert kinds == {MessageKind.LEGIT, MessageKind.SPAM, MessageKind.NEWSLETTER}

    def test_all_drop_reasons_exercised(self, result):
        reasons = {
            r.drop_reason for r in result.store.mta if r.drop_reason
        }
        # Sender-rejected is rare (0.03 %) and may be absent at tiny scale.
        required = {
            DropReason.MALFORMED,
            DropReason.UNRESOLVABLE_DOMAIN,
            DropReason.NO_RELAY,
            DropReason.UNKNOWN_RECIPIENT,
        }
        assert required <= reasons

    def test_all_sender_classes_exercised(self, result):
        classes = {r.sender_class for r in result.store.dispatch}
        assert SenderClass.INNOCENT_THIRD_PARTY in classes
        assert SenderClass.DEAD_DOMAIN in classes
        assert SenderClass.REAL in classes

    def test_spam_dominates_gray(self, result):
        gray = [
            r for r in result.store.dispatch if r.category is Category.GRAY
        ]
        spam = sum(1 for r in gray if r.kind is MessageKind.SPAM)
        assert spam / len(gray) > 0.6

    def test_every_company_receives_traffic(self, result):
        companies = {r.company_id for r in result.store.mta}
        assert companies == set(result.installations)

    def test_spam_carries_campaign_ids(self, result):
        spam = [
            r
            for r in result.store.dispatch
            if r.kind is MessageKind.SPAM and r.campaign_id
        ]
        campaigns = {r.campaign_id for r in spam}
        assert len(campaigns) > 3
        assert all(c.startswith("sc-") for c in campaigns)

    def test_campaign_subjects_are_constant_within_campaign(self, result):
        by_campaign = {}
        for r in result.store.dispatch:
            if r.kind is MessageKind.SPAM and r.campaign_id:
                by_campaign.setdefault(r.campaign_id, set()).add(r.subject)
        # Sender-quality rewrites do not touch subjects, so every campaign
        # has exactly one subject.
        assert all(len(subjects) == 1 for subjects in by_campaign.values())


class TestTiming:
    def test_messages_span_the_horizon(self, result):
        days = {day_of(r.t) for r in result.store.mta}
        assert min(days) == 0
        assert max(days) == result.info.horizon_days - 1

    def test_record_times_monotone(self, result):
        times = [r.t for r in result.store.mta]
        assert times == sorted(times)

    def test_weekend_legit_dip(self, result):
        from repro.util.simtime import is_weekend

        legit_by_weekend = {True: 0, False: 0}
        days_by_weekend = {True: set(), False: set()}
        for r in result.store.dispatch:
            if r.kind is MessageKind.LEGIT:
                weekend = is_weekend(r.t)
                legit_by_weekend[weekend] += 1
                days_by_weekend[weekend].add(day_of(r.t))
        weekday_rate = legit_by_weekend[False] / max(
            len(days_by_weekend[False]), 1
        )
        weekend_rate = legit_by_weekend[True] / max(
            len(days_by_weekend[True]), 1
        )
        assert weekend_rate < weekday_rate


class TestOutboundAndChurn:
    def test_outbound_mail_generated(self, result):
        assert result.store.outbound

    def test_whitelist_changes_from_multiple_sources(self, result):
        from repro.core.whitelist import WhitelistSource

        sources = {c.source for c in result.store.whitelist_changes}
        assert WhitelistSource.OUTBOUND in sources
        assert WhitelistSource.MANUAL in sources

    def test_determinism_same_seed(self):
        a = run_simulation("tiny", seed=99)
        b = run_simulation("tiny", seed=99)
        assert a.store.summary_counts() == b.store.summary_counts()
        assert [r.msg_id for r in a.store.mta[:200]] == [
            r.msg_id for r in b.store.mta[:200]
        ]

    def test_different_seeds_differ(self, result):
        other = run_simulation("tiny", seed=14)
        assert (
            other.store.summary_counts() != result.store.summary_counts()
        )


def _mta_counters(result) -> dict:
    return {
        company_id: (
            installation.mta_in.accepted,
            dict(installation.mta_in.dropped),
            installation.mta_in.dns_tempfails,
        )
        for company_id, installation in result.installations.items()
    }


def _count_calls(monkeypatch, owner, attr: str) -> list:
    """Patch ``owner.attr`` to append each call's return value to the
    returned list."""
    original = getattr(owner, attr)
    returned = []

    def counted(self, arg):
        value = original(self, arg)
        returned.append(value)
        return value

    monkeypatch.setattr(owner, attr, counted)
    return returned


class TestDoor:
    """Rows MTA-IN refuses whatever DNS says skip the message build; the
    door must leave everything the full ``handle_inbound`` path leaves."""

    @pytest.mark.parametrize("preset,seed,weather", [
        pytest.param("tiny", 3, {}, id="tiny-3"),
        pytest.param("small", 11, {}, id="small-11"),
        pytest.param("tiny", 7, {"faults": "stormy"}, id="tiny-7-stormy"),
    ])
    def test_door_matches_the_full_path(
        self, preset, seed, weather, monkeypatch
    ):
        refused = _count_calls(
            monkeypatch, CompanyInstallation, "refuse_at_door"
        )
        reasons = _count_calls(
            monkeypatch, CompanyInstallation, "handle_inbound"
        )
        verdicts = _count_calls(monkeypatch, MtaIn, "check")
        door = run_simulation(preset, seed=seed, **weather)
        # Every refusal went through the door or handle_inbound, once.
        assert refused
        drops = sum(r.drop_reason is not None for r in door.store.mta)
        assert drops == len(refused) + sum(r is not None for r in reasons)
        door_calls = len(refused)
        # Door rows still get their verdict from MtaIn.check.
        door_verdicts = list(verdicts)
        del verdicts[:]
        monkeypatch.setattr(TraceGenerator, "_doors", lambda self: None)
        full = run_simulation(preset, seed=seed, **weather)
        assert len(refused) == door_calls  # the full path took every row
        assert verdicts == door_verdicts
        assert store_digest(door.store) == store_digest(full.store)
        assert execution_invariant(door.metrics) == execution_invariant(
            full.metrics
        )
        assert _mta_counters(door) == _mta_counters(full)
        if weather:
            assert sum(
                counters[2] for counters in _mta_counters(door).values()
            ) > 0

    def test_crash_runs_refuse_every_row_in_handle_inbound(
        self, monkeypatch
    ):
        refused = _count_calls(
            monkeypatch, CompanyInstallation, "refuse_at_door"
        )
        reasons = _count_calls(
            monkeypatch, CompanyInstallation, "handle_inbound"
        )
        result = run_simulation("tiny", seed=7, crashes="flaky")
        assert refused == []
        drops = [r.drop_reason for r in result.store.mta if r.drop_reason]
        assert sorted(map(str, drops)) == sorted(
            str(reason) for reason in reasons if reason is not None
        )
