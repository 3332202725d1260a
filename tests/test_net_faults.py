"""Unit tests for the fault-injection substrate (network weather).

Each fault class is exercised end to end through the outbound MTA so the
tests pin the *observable* SMTP behaviour — deferral codes, retry-then-
success, retry-until-expiry — not just the plan's internal window maths.
"""

from __future__ import annotations

import pytest

from repro.blacklistd.service import DnsblService, ListingPolicy
from repro.net.dns import DnsRegistry, DnsTemporaryFailure, Resolver
from repro.net.faults import (
    FAULT_PRESETS,
    FaultPlan,
    FaultSettings,
    fault_preset_names,
    get_fault_preset,
)
from repro.net.hosts import RemoteMailHost
from repro.net.internet import NO_ROUTE, Internet
from repro.net.mta_out import DEFAULT_RETRY_DELAYS, OutboundMta
from repro.net.smtp import Envelope, FinalStatus, Reply
from repro.sim.engine import Simulator
from repro.util.simtime import DAY, HOUR

#: Weather disabled, greylisting everywhere — isolates the greylist path.
GREYLIST_ONLY = FaultSettings(
    greylist_host_frac=1.0,
    storms_per_host_month=0.0,
    outages_per_host_month=0.0,
    dns_episodes_per_month=0.0,
)

#: No randomly drawn faults at all; windows are pinned via force_* helpers.
QUIET = FaultSettings(
    greylist_host_frac=0.0,
    storms_per_host_month=0.0,
    outages_per_host_month=0.0,
    dns_episodes_per_month=0.0,
)

HORIZON = 30 * DAY


def _setup(settings):
    simulator = Simulator()
    registry = DnsRegistry()
    resolver = Resolver(registry)
    internet = Internet(resolver)
    registry.register_mail_domain("remote.example", "1.1.1.1")
    host = RemoteMailHost("remote.example", "1.1.1.1", mailboxes={"bob"})
    internet.register_host(host)
    plan = FaultPlan(settings, seed=7, horizon=HORIZON, clock=simulator)
    internet.install_fault_plan(plan)
    resolver.fault_plan = plan
    mta = OutboundMta("test-mta", "9.0.0.1", simulator, internet)
    return simulator, internet, mta, host, plan


def _send(mta, rcpt, results, mail_from="challenge@corp.example"):
    envelope = Envelope(
        mail_from=mail_from,
        rcpt_to=rcpt,
        size=1800,
        client_ip="ignored",
        payload_id=1,
    )
    mta.send(envelope, lambda env, result: results.append(result))


class TestPresets:
    def test_known_presets(self):
        assert set(fault_preset_names()) == {"off", "mild", "stormy"}
        assert get_fault_preset("off").enabled is False
        assert get_fault_preset("stormy").enabled is True

    def test_unknown_preset_raises_with_available_names(self):
        with pytest.raises(KeyError, match="mild"):
            get_fault_preset("hurricane")

    def test_off_preset_draws_nothing(self):
        plan = FaultPlan(
            FAULT_PRESETS["off"], seed=3, horizon=HORIZON, clock=Simulator()
        )
        assert plan._dns_episodes == []
        assert plan._windows_for("any.example") == ([], [])


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        settings = FAULT_PRESETS["stormy"]
        a = FaultPlan(settings, seed=11, horizon=HORIZON, clock=Simulator())
        b = FaultPlan(settings, seed=11, horizon=HORIZON, clock=Simulator())
        assert a._dns_episodes == b._dns_episodes
        assert a._windows_for("x.example") == b._windows_for("x.example")
        assert a.dnsbl_lag_for("spamcop-bl") == b.dnsbl_lag_for("spamcop-bl")

    def test_schedule_independent_of_query_order(self):
        settings = FAULT_PRESETS["stormy"]
        a = FaultPlan(settings, seed=11, horizon=HORIZON, clock=Simulator())
        b = FaultPlan(settings, seed=11, horizon=HORIZON, clock=Simulator())
        first_a = a._windows_for("first.example")
        b._windows_for("other.example")  # different materialisation order
        assert b._windows_for("first.example") == first_a

    def test_different_seeds_differ(self):
        settings = FAULT_PRESETS["stormy"]
        a = FaultPlan(settings, seed=1, horizon=HORIZON, clock=Simulator())
        b = FaultPlan(settings, seed=2, horizon=HORIZON, clock=Simulator())
        domains = [f"d{i}.example" for i in range(8)]
        assert any(
            a._windows_for(d) != b._windows_for(d) for d in domains
        ) or a._dns_episodes != b._dns_episodes


class TestGreylisting:
    def test_first_attempt_deferred_retry_delivered(self):
        simulator, _, mta, host, plan = _setup(GREYLIST_ONLY)
        results = []
        _send(mta, "bob@remote.example", results)
        simulator.run()
        result = results[0]
        assert result.status is FinalStatus.DELIVERED
        assert result.attempts == 2
        assert result.t_final == DEFAULT_RETRY_DELAYS[0]
        assert host.greylisted_count == 1
        assert host.accepted_count == 1
        assert plan.counters.greylist_deferrals == 1

    def test_known_triple_not_deferred_again(self):
        simulator, _, mta, host, plan = _setup(GREYLIST_ONLY)
        results = []
        _send(mta, "bob@remote.example", results)
        simulator.run()
        # Same (client_ip, mail_from, rcpt_to) triple: sails through.
        _send(mta, "bob@remote.example", results)
        simulator.run()
        assert results[1].attempts == 1
        assert plan.counters.greylist_deferrals == 1

    def test_new_triple_deferred_independently(self):
        simulator, _, mta, _, plan = _setup(GREYLIST_ONLY)
        results = []
        _send(mta, "bob@remote.example", results)
        simulator.run()
        _send(mta, "bob@remote.example", results, mail_from="other@corp.example")
        simulator.run()
        assert results[1].attempts == 2
        assert plan.counters.greylist_deferrals == 2

    def test_zero_host_frac_never_defers(self):
        simulator, _, mta, _, plan = _setup(QUIET)
        results = []
        _send(mta, "bob@remote.example", results)
        simulator.run()
        assert results[0].attempts == 1
        assert plan.counters.greylist_deferrals == 0


class TestStormsAndOutages:
    def test_storm_covering_all_retries_expires(self):
        simulator, _, mta, host, plan = _setup(QUIET)
        plan.force_weather(
            "remote.example", storms=((0.0, sum(DEFAULT_RETRY_DELAYS) + DAY),)
        )
        results = []
        _send(mta, "bob@remote.example", results)
        simulator.run()
        result = results[0]
        assert result.status is FinalStatus.EXPIRED
        assert result.attempts == len(DEFAULT_RETRY_DELAYS) + 1
        assert result.last_code is Reply.SERVICE_UNAVAILABLE
        assert plan.counters.storm_rejections == result.attempts
        assert host.accepted_count == 0

    def test_storm_ends_delivery_succeeds(self):
        simulator, _, mta, host, plan = _setup(QUIET)
        plan.force_weather("remote.example", storms=((0.0, 10 * 60.0),))
        results = []
        _send(mta, "bob@remote.example", results)
        simulator.run()
        result = results[0]
        assert result.status is FinalStatus.DELIVERED
        assert result.attempts == 2  # first retry lands after the storm
        assert host.accepted_count == 1

    def test_outage_fails_like_connect_timeout_then_recovers(self):
        simulator, _, mta, _, plan = _setup(QUIET)
        plan.force_weather("remote.example", outages=((0.0, 10 * 60.0),))
        results = []
        _send(mta, "bob@remote.example", results)
        simulator.run()
        result = results[0]
        assert result.status is FinalStatus.DELIVERED
        assert result.attempts == 2
        assert plan.counters.outage_failures == 1

    def test_weather_checked_before_host_policy(self):
        # Even a nonexistent mailbox gets the 4xx during a storm — the
        # server is not answering RCPT at all, so no 550 leaks out.
        simulator, internet, _, _, plan = _setup(QUIET)
        plan.force_weather("remote.example", storms=((0.0, HOUR),))
        response = internet.submit(
            Envelope(
                mail_from="x@a.example",
                rcpt_to="ghost@remote.example",
                size=1,
                client_ip="9.9.9.9",
                payload_id=2,
            ),
            now=0.0,
        )
        assert response.code is Reply.SERVICE_UNAVAILABLE
        assert response.transient


class TestDnsEpisodes:
    def test_servfail_is_transient_and_retried(self):
        simulator, _, mta, _, plan = _setup(QUIET)
        plan.force_dns_episode(0.0, 10 * 60.0, failure_frac=1.0)
        results = []
        _send(mta, "bob@remote.example", results)
        simulator.run()
        result = results[0]
        assert result.status is FinalStatus.DELIVERED
        assert result.attempts == 2
        assert plan.counters.dns_failures >= 1

    def test_servfail_never_cached_as_no_route(self):
        simulator, internet, _, _, plan = _setup(QUIET)
        plan.force_dns_episode(0.0, 10 * 60.0, failure_frac=1.0)
        with pytest.raises(DnsTemporaryFailure):
            internet.route_for("remote.example")
        # After the episode the same domain routes normally — the failure
        # must not have been stored as NO_ROUTE or poisoned the cache.
        simulator.run(until=HOUR)
        route = internet.route_for("remote.example")
        assert route is not NO_ROUTE
        assert route is not None

    def test_warm_route_cache_does_not_mask_the_outage(self):
        simulator, internet, _, _, plan = _setup(QUIET)
        assert internet.route_for("remote.example") is not None  # cache warm
        plan.force_dns_episode(HOUR, 2 * HOUR, failure_frac=1.0)
        simulator.run(until=HOUR + 1)
        with pytest.raises(DnsTemporaryFailure):
            internet.route_for("remote.example")

    def test_failure_frac_partitions_namespace(self):
        simulator, internet, _, _, plan = _setup(QUIET)
        registry = internet.resolver.registry
        domains = []
        for i in range(40):
            domain = f"d{i}.example"
            registry.register_mail_domain(domain, f"10.0.0.{i}")
            domains.append(domain)
        plan.force_dns_episode(0.0, HOUR, failure_frac=0.5)
        failing = [d for d in domains if plan.dns_unavailable(d)]
        assert 0 < len(failing) < len(domains)
        # The failing subset is stable for the episode's whole duration.
        assert [d for d in domains if plan.dns_unavailable(d)] == failing


class TestDnsblLag:
    POLICY = ListingPolicy(threshold=1, window=DAY, base_duration=DAY)

    def test_listing_becomes_visible_after_lag(self):
        service = DnsblService("rbl", self.POLICY, listing_lag=HOUR)
        service.record_trap_hit("198.51.100.9", now=0.0)
        assert service.is_listed("198.51.100.9", now=10.0) is False
        assert service.is_listed("198.51.100.9", now=HOUR - 1) is False
        assert service.is_listed("198.51.100.9", now=HOUR + 1) is True

    def test_cached_not_listed_expires_when_listing_appears(self):
        service = DnsblService("rbl", self.POLICY, listing_lag=HOUR)
        service.record_trap_hit("198.51.100.9", now=0.0)
        assert service.is_listed("198.51.100.9", now=1.0) is False
        hits = service.cache_hits
        assert service.is_listed("198.51.100.9", now=2.0) is False
        assert service.cache_hits == hits + 1  # still a valid cached answer
        assert service.is_listed("198.51.100.9", now=HOUR + 1) is True

    def test_delisting_lag_keeps_ip_listed_past_expiry(self):
        service = DnsblService("rbl", self.POLICY, delisting_lag=DAY)
        service.record_trap_hit("198.51.100.9", now=0.0)
        assert service.is_listed("198.51.100.9", now=DAY + HOUR) is True
        assert service.is_listed("198.51.100.9", now=2 * DAY + 1) is False

    def test_zero_lag_is_the_instantaneous_behaviour(self):
        service = DnsblService("rbl", self.POLICY)
        service.record_trap_hit("198.51.100.9", now=0.0)
        assert service.is_listed("198.51.100.9", now=0.0) is True
        state = service._state["198.51.100.9"]
        assert state.listed_from == 0.0
        assert state.listed_until == DAY
        assert service.is_listed("198.51.100.9", now=DAY - 1) is True
        assert service.is_listed("198.51.100.9", now=DAY) is False

    def test_plan_lags_fall_in_configured_ranges(self):
        plan = FaultPlan(
            FAULT_PRESETS["stormy"], seed=5, horizon=HORIZON, clock=Simulator()
        )
        settings = FAULT_PRESETS["stormy"]
        for name in ("a-rbl", "b-rbl", "c-rbl"):
            listing, delisting = plan.dnsbl_lag_for(name)
            low, high = settings.dnsbl_listing_lag_range
            assert low <= listing <= high
            low, high = settings.dnsbl_delisting_lag_range
            assert low <= delisting <= high
