"""Tests for the adversarial scenarios (§6 / Limitations extensions)."""

import pytest

from repro.core.message import MessageKind
from repro.core.spools import Category
from repro.experiments import run_simulation
from repro.net.smtp import BounceReason
from repro.scenarios import AttackSpec, ScenarioSpec
from repro.util.simtime import DAY

VICTIM = "c01"


def _attack(kind, company_id=VICTIM, **fields):
    """A one-attack scenario, the only way a run takes attacks."""
    attack = AttackSpec(kind=kind, company_id=company_id, **fields)
    return ScenarioSpec(name=kind, attacks=(attack,))


@pytest.fixture(scope="module")
def baseline():
    return run_simulation("tiny", seed=17)


@pytest.fixture(scope="module")
def bombed():
    return run_simulation(
        "tiny",
        seed=17,
        scenario=_attack(
            "trap-bombing", messages_per_day=150, start_day=1, duration_days=5
        ),
    )


@pytest.fixture(scope="module")
def spoofed():
    return run_simulation(
        "tiny",
        seed=17,
        scenario=_attack(
            "whitelist-spoofing",
            messages_per_day=100,
            start_day=1,
            duration_days=5,
            params=(("guess_prob", 0.6),),
        ),
    )


def _listed_days(result, ip):
    return len(
        {
            int(p.t // DAY)
            for p in result.store.probes
            if p.ip == ip and p.listed
        }
    )


class TestTrapBombing:
    def test_attack_messages_reach_the_engine(self, bombed):
        records = [
            r
            for r in bombed.store.dispatch
            if r.campaign_id == "attack-trapbomb"
        ]
        assert len(records) > 300
        assert all(r.company_id == VICTIM for r in records)

    def test_attack_triggers_challenges(self, bombed):
        attacked = {
            r.challenge_id
            for r in bombed.store.dispatch
            if r.campaign_id == "attack-trapbomb" and r.challenge_id
        }
        # Clean attack hosts pass the filters, so most messages reflect.
        assert len(attacked) > 100

    def test_victim_server_gets_blacklisted(self, baseline, bombed):
        ip = bombed.installations[VICTIM].challenge_mta.ip
        assert _listed_days(bombed, ip) > _listed_days(baseline, ip)
        assert _listed_days(bombed, ip) >= 3

    def test_victim_suffers_blacklist_bounces(self, baseline, bombed):
        def bounces(result):
            return sum(
                1
                for o in result.store.challenge_outcomes
                if o.company_id == VICTIM
                and o.bounce_reason is BounceReason.BLACKLISTED
            )

        assert bounces(bombed) > bounces(baseline)

    def test_other_companies_unaffected(self, baseline, bombed):
        # Same seed: non-victim companies see identical inbound counts.
        def per_company(result):
            counts = {}
            for record in result.store.mta:
                counts[record.company_id] = counts.get(record.company_id, 0) + 1
            return counts

        base_counts = per_company(baseline)
        bomb_counts = per_company(bombed)
        for company_id in base_counts:
            if company_id != VICTIM:
                assert bomb_counts[company_id] == base_counts[company_id]


class TestWhitelistSpoofing:
    def test_spoofed_spam_reaches_inbox(self, spoofed):
        records = [
            r
            for r in spoofed.store.dispatch
            if r.campaign_id == "attack-spoof"
        ]
        assert records
        white = sum(1 for r in records if r.category is Category.WHITE)
        hit_rate = white / len(records)
        # Roughly the attacker's guess probability times the seeded share.
        assert 0.3 < hit_rate < 0.75

    def test_all_attack_mail_is_spam_ground_truth(self, spoofed):
        records = [
            r
            for r in spoofed.store.dispatch
            if r.campaign_id == "attack-spoof"
        ]
        assert all(r.kind is MessageKind.SPAM for r in records)

    def test_unknown_company_raises(self):
        with pytest.raises(KeyError):
            run_simulation(
                "tiny",
                seed=17,
                scenario=_attack("whitelist-spoofing", company_id="c99"),
            )


class TestInstallHardening:
    def test_attack_window_past_horizon_raises(self):
        # Tiny horizon is 10 days; days 8..12 would silently never fire.
        with pytest.raises(ValueError, match="horizon"):
            run_simulation(
                "tiny",
                seed=17,
                scenario=_attack("trap-bombing", start_day=8, duration_days=5),
            )

    def test_negative_start_day_raises(self):
        with pytest.raises(ValueError):
            run_simulation(
                "tiny", seed=17, scenario=_attack("trap-bombing", start_day=-1)
            )

    def test_zero_duration_raises(self):
        with pytest.raises(ValueError):
            run_simulation(
                "tiny",
                seed=17,
                scenario=_attack("trap-bombing", duration_days=0),
            )
