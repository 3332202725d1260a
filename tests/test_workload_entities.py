"""Unit tests for world construction."""

import random

import pytest

from repro.net.addresses import is_well_formed
from repro.util.rng import RngStreams
from repro.workload.calibration import DEFAULT_CALIBRATION
from repro.workload.entities import build_world
from repro.workload.scale import get_preset


@pytest.fixture(scope="module")
def world():
    return build_world(get_preset("tiny"), DEFAULT_CALIBRATION, RngStreams(5))


class TestCompanies:
    def test_company_count_matches_scale(self, world):
        assert len(world.companies) == world.scale.n_companies

    def test_open_relay_count(self, world):
        relays = [c for c in world.companies if c.config.open_relay]
        assert len(relays) == world.scale.open_relays

    def test_total_users_near_scale(self, world):
        total = sum(c.n_users for c in world.companies)
        assert total == pytest.approx(world.scale.total_users, rel=0.35)

    def test_every_company_has_minimum_users(self, world):
        assert all(c.n_users >= 3 for c in world.companies)

    def test_company_domains_registered_in_dns(self, world):
        for company in world.companies:
            assert world.resolver.resolves(company.config.domain)

    def test_relay_domains_registered(self, world):
        for company in world.companies:
            for relay_domain in company.config.relay_domains:
                assert world.resolver.resolves(relay_domain)

    def test_dual_outbound_for_about_a_third(self, world):
        dual = [c for c in world.companies if c.config.dual_outbound]
        assert 0 < len(dual) <= len(world.companies) // 2

    def test_unique_ips_per_company(self, world):
        ips = set()
        for company in world.companies:
            config = company.config
            for ip in {config.mta_in_ip, config.mta_out_ip, config.challenge_ip}:
                assert ip not in ips
                ips.add(ip)

    def test_rejected_senders_resolve(self, world):
        # The sender-rejected check runs after domain resolution, so the
        # blocked addresses must live at resolvable domains.
        for company in world.companies:
            for sender in company.config.rejected_senders:
                domain = sender.rsplit("@", 1)[-1]
                assert world.resolver.resolves(domain)

    def test_dirty_companies_have_high_affinity(self, world):
        cal = DEFAULT_CALIBRATION
        dirty = [
            c
            for c in world.companies
            if c.trap_affinity > cal.trap_affinity_clean_max
        ]
        assert 1 <= len(dirty) <= cal.dirty_companies
        assert all(a in cal.trap_affinity_dirty for a in
                   (c.trap_affinity for c in dirty))

    def test_user_profiles_complete(self, world):
        for company in world.companies:
            for user in company.users:
                assert user.address.endswith("@" + company.config.domain)
                assert user.sociality > 0
                assert user.contacts
                assert user.nuisance_senders


class TestExternalWorld:
    def test_contact_addresses_are_deliverable(self, world):
        rng = random.Random(0)
        for _ in range(30):
            contact = rng.choice(world.contact_pool)
            local, domain = contact.rsplit("@", 1)
            host = world.internet.host_for(domain)
            assert host is not None
            assert host.has_mailbox(local)

    def test_innocent_addresses_are_deliverable(self, world):
        rng = random.Random(1)
        for _ in range(30):
            innocent = rng.choice(world.innocent_pool)
            local, domain = innocent.rsplit("@", 1)
            assert world.internet.host_for(domain).has_mailbox(local)

    def test_dead_domains_resolve_but_have_no_host(self, world):
        for domain in world.dead_domains[:20]:
            assert world.resolver.resolves(domain)
            assert world.internet.host_for(domain) is None

    def test_unresolvable_domains_do_not_resolve(self, world):
        for domain in world.unresolvable_domains[:20]:
            assert not world.resolver.resolves(domain)

    def test_trap_addresses_owned_by_services(self, world):
        for trap in world.trap_addresses[:20]:
            owner = world.trap_directory.owner_of(trap)
            assert owner in world.services

    def test_trap_hosts_report_hits(self, world):
        trap = world.trap_addresses[0]
        service_name = world.trap_directory.owner_of(trap)
        service = world.services[service_name]
        local, domain = trap.rsplit("@", 1)
        host = world.internet.host_for(domain)
        from repro.net.smtp import Envelope

        assert "203.0.113.7" not in service._state
        for _ in range(10):
            host.deliver(
                Envelope("c@x.com", trap, 100, "203.0.113.7"), now=0.0
            )
        assert service.is_listed("203.0.113.7", 1.0)
        assert service._state["203.0.113.7"].listings == 1

    def test_eight_dnsbl_services(self, world):
        assert len(world.services) == 8

    def test_sampling_helpers_produce_valid_addresses(self, world):
        rng = random.Random(2)
        samples = [
            world.sample_nonexistent_sender(rng),
            world.sample_dead_domain_sender(rng),
            world.sample_innocent_sender(rng),
            world.sample_trap_sender(rng),
            world.sample_spammer_sender(rng),
        ]
        assert all(is_well_formed(s) for s in samples)
        # Unresolvable senders are well-formed but do not resolve.
        unresolvable = world.sample_unresolvable_sender(rng)
        assert is_well_formed(unresolvable)
        assert not world.resolver.resolves(unresolvable.rsplit("@", 1)[-1])

    def test_create_new_contact_registers_mailbox(self, world):
        address, client_ip = world.create_new_contact(random.Random(3))
        local, domain = address.rsplit("@", 1)
        assert world.internet.host_for(domain).has_mailbox(local)
        assert client_ip == world.internet.host_for(domain).ip

    def test_create_bot_ips_properties(self, world):
        rng = random.Random(4)
        bots = world.create_bot_ips(200, rng, listed_duration=10_000, now=0.0)
        assert len(set(bots)) == 200
        with_ptr = sum(1 for ip in bots if world.resolver.ptr(ip))
        share = with_ptr / len(bots)
        assert 0.4 < share < 0.85  # around bot_ptr_prob
        rbl = world.services["spamhaus-zen"]
        listed = sum(1 for ip in bots if rbl.is_listed(ip, 1.0))
        assert 0.5 < listed / len(bots) < 0.9  # around bot coverage

    def test_newsletter_sources_have_subscribers(self, world):
        assert world.newsletter_sources
        total_subs = sum(len(s.subscribers) for s in world.newsletter_sources)
        assert total_subs > 0

    def test_marketing_sources_built(self, world):
        assert world.marketing_sources
        for source in world.marketing_sources[:5]:
            assert source.senders
            assert 0 <= source.solve_prob <= 1.0
            assert world.internet.host_for(source.domain) is not None


class TestDeterminism:
    def test_same_seed_same_world(self):
        scale = get_preset("tiny")
        a = build_world(scale, DEFAULT_CALIBRATION, RngStreams(9))
        b = build_world(scale, DEFAULT_CALIBRATION, RngStreams(9))
        assert [c.config.domain for c in a.companies] == [
            c.config.domain for c in b.companies
        ]
        assert a.contact_pool == b.contact_pool
        assert [c.trap_affinity for c in a.companies] == [
            c.trap_affinity for c in b.companies
        ]

    def test_different_seed_different_world(self):
        scale = get_preset("tiny")
        a = build_world(scale, DEFAULT_CALIBRATION, RngStreams(9))
        b = build_world(scale, DEFAULT_CALIBRATION, RngStreams(10))
        assert a.contact_pool != b.contact_pool
