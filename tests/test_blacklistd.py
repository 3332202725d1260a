"""Unit + property tests for the DNSBL ecosystem."""

import pickle
import random
from functools import partial

from hypothesis import given, settings, strategies as st

from repro.blacklistd.monitor import BlacklistMonitor
from repro.blacklistd.service import (
    DnsblService,
    ListingPolicy,
    make_default_services,
)
from repro.blacklistd.spamtrap import TrapDirectory
from repro.sim.engine import Simulator
from repro.util.simtime import DAY, HOUR


def _service(threshold=2, window=DAY, base=DAY, escalation=2.0, max_d=30 * DAY):
    return DnsblService(
        "test-rbl",
        ListingPolicy(
            threshold=threshold,
            window=window,
            base_duration=base,
            escalation=escalation,
            max_duration=max_d,
        ),
    )


class _Recording(DnsblService):
    """Keeps every trap-triggered listing as ``(listed_from,
    listed_until)``, for the policy tests that need the whole history."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.listings = []

    def _list(self, ip, state, now):
        super()._list(ip, state, now)
        self.listings.append((state.listed_from, state.listed_until))


def _listed_time(spans, horizon: float) -> float:
    """Seconds within ``[0, horizon]`` covered by the union of *spans*."""
    total, end = 0.0, 0.0
    for start, until in sorted(spans):
        start, until = max(start, end), min(until, horizon)
        if until > start:
            total += until - start
            end = until
    return total


class TestTrapDirectory:
    def test_add_and_lookup(self):
        directory = TrapDirectory()
        directory.add_trap("Trap@X.example", "svc")
        assert directory.is_trap("trap@x.example")
        assert directory.owner_of("trap@x.example") == "svc"

    def test_unknown_address(self):
        directory = TrapDirectory()
        assert not directory.is_trap("a@b.com")
        assert directory.owner_of("a@b.com") is None

    def test_create_traps_counts(self):
        directory = TrapDirectory()
        created = directory.create_traps(
            "svc", ["a.example", "b.example"], 5, random.Random(0)
        )
        assert len(created) == 10
        assert len(directory) == 10
        assert all(directory.owner_of(t) == "svc" for t in created)

    def test_trap_locals_look_harvested(self):
        directory = TrapDirectory()
        (trap,) = directory.create_traps("svc", ["a.example"], 1, random.Random(0))
        assert trap.startswith("trap-")
        assert trap.endswith("@a.example")


class TestListingPolicy:
    def test_below_threshold_not_listed(self):
        service = _service(threshold=3)
        service.record_trap_hit("1.1.1.1", 0.0)
        service.record_trap_hit("1.1.1.1", 1.0)
        assert not service.is_listed("1.1.1.1", 2.0)

    def test_threshold_reached_lists(self):
        service = _service(threshold=2)
        service.record_trap_hit("1.1.1.1", 0.0)
        service.record_trap_hit("1.1.1.1", 1.0)
        assert service.is_listed("1.1.1.1", 2.0)

    def test_listing_expires(self):
        service = _service(threshold=1, base=DAY)
        service.record_trap_hit("1.1.1.1", 0.0)
        assert service.is_listed("1.1.1.1", DAY - 1)
        assert not service.is_listed("1.1.1.1", DAY + 1)

    def test_hits_outside_window_do_not_count(self):
        service = _service(threshold=2, window=HOUR)
        service.record_trap_hit("1.1.1.1", 0.0)
        service.record_trap_hit("1.1.1.1", 2 * HOUR)
        assert not service.is_listed("1.1.1.1", 2 * HOUR + 1)

    def test_relisting_escalates_duration(self):
        service = _service(threshold=1, base=DAY, escalation=2.0)
        service.record_trap_hit("1.1.1.1", 0.0)
        assert service.is_listed("1.1.1.1", DAY - 1)
        assert not service.is_listed("1.1.1.1", DAY)
        # Second listing, after the first expired.
        service.record_trap_hit("1.1.1.1", 3 * DAY)
        state = service._state["1.1.1.1"]
        assert (state.listings, state.listed_from, state.listed_until) == (
            2, 3 * DAY, 5 * DAY
        )
        assert service.is_listed("1.1.1.1", 5 * DAY - 1)
        assert not service.is_listed("1.1.1.1", 5 * DAY)

    def test_escalation_capped_at_max(self):
        service = _service(threshold=1, base=DAY, escalation=10.0, max_d=3 * DAY)
        service.record_trap_hit("1.1.1.1", 0.0)
        service.record_trap_hit("1.1.1.1", 2 * DAY)  # expired? no: still listed
        service.record_trap_hit("1.1.1.1", 5 * DAY)
        state = service._state["1.1.1.1"]
        assert state.listed_until - state.listed_from <= 3 * DAY

    def test_hits_while_listed_do_not_relist(self):
        service = _service(threshold=1, base=5 * DAY)
        service.record_trap_hit("1.1.1.1", 0.0)
        service.record_trap_hit("1.1.1.1", 1 * DAY)
        state = service._state["1.1.1.1"]
        assert (state.listings, state.listed_until) == (1, 5 * DAY)

    def test_ips_are_independent(self):
        service = _service(threshold=1)
        service.record_trap_hit("1.1.1.1", 0.0)
        assert not service.is_listed("2.2.2.2", 1.0)

    def test_force_list(self):
        service = _service()
        service.force_list("3.3.3.3", 0.0, 10 * DAY)
        assert service.is_listed("3.3.3.3", 5 * DAY)
        assert not service.is_listed("3.3.3.3", 11 * DAY)

    def test_overlapping_listings_merge_into_listed_days(self):
        listings = [(0.0, 2 * DAY), (1 * DAY, 2 * DAY), (10 * DAY, DAY)]
        service = _service()
        for now, duration in listings[:2]:  # overlapping
            service.force_list("4.4.4.4", now, duration)
        assert service.is_listed("4.4.4.4", 3 * DAY - 1)
        assert not service.is_listed("4.4.4.4", 3 * DAY)
        assert _probed_listed_days("4.4.4.4", 30 * DAY, listings) == 4.0

    def test_listed_days_clipped_at_horizon(self):
        assert _probed_listed_days("4.4.4.4", 5 * DAY, [(0.0, 10 * DAY)]) == 5.0

    @given(
        st.lists(
            st.floats(min_value=0, max_value=30 * DAY),
            min_size=0,
            max_size=40,
        )
    )
    def test_listing_monotone_in_trap_hits(self, hit_times):
        """More trap hits never yield *less* cumulative listed time."""
        base_hits = sorted(hit_times)
        extra_hits = sorted(base_hits + [15 * DAY])
        horizon = 120 * DAY

        policy = _service(threshold=2).policy
        a = _Recording("test-rbl", policy)
        for t in base_hits:
            a.record_trap_hit("9.9.9.9", t)
        b = _Recording("test-rbl", policy)
        for t in extra_hits:
            b.record_trap_hit("9.9.9.9", t)
        # Tolerance absorbs float rounding in interval merging.
        assert _listed_time(b.listings, horizon) >= (
            _listed_time(a.listings, horizon) - 1e-5
        )


def _probed_listed_days(ip: str, horizon: float, listings) -> float:
    """Days the §5.1 probe sees *ip* listed, probing until *horizon*,
    with each ``(time, duration)`` of *listings* force-listed at its
    time."""
    service = _service()
    simulator = Simulator()
    for now, duration in listings:
        simulator.schedule(now, partial(service.force_list, ip, now, duration))
    monitor = BlacklistMonitor(simulator, [service], [ip], interval=4 * HOUR)
    monitor.start(until=horizon)
    simulator.run()
    return monitor.listed_days(ip)


class _EagerService(DnsblService):
    """Reference for lazy pre-listings: every bulk pre-listing builds each
    IP's state at once, one ``force_list`` per IP in order."""

    def force_list_many(self, ips, now, duration):
        for ip in ips:
            self.force_list(ip, now, duration)


_POOL = [f"10.0.0.{i}" for i in range(6)]

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("many"), st.lists(st.sampled_from(_POOL), max_size=5),
            st.floats(min_value=1.0, max_value=5 * DAY),
        ),
        st.tuples(
            st.just("one"), st.sampled_from(_POOL),
            st.floats(min_value=1.0, max_value=5 * DAY),
        ),
        st.tuples(st.just("trap"), st.sampled_from(_POOL)),
        st.tuples(st.just("query"), st.sampled_from(_POOL)),
    ),
    max_size=40,
)


def _apply(service, ops, times, answers):
    """Run *ops* at the nondecreasing *times*, appending each query's
    answer to *answers*."""
    for op, now in zip(ops, times):
        kind = op[0]
        if kind == "many":
            service.force_list_many(list(op[1]), now, op[2])
        elif kind == "one":
            service.force_list(op[1], now, op[2])
        elif kind == "trap":
            service.record_trap_hit(op[1], now)
        else:
            answers.append(service.is_listed(op[1], now))


def _materialised_state(service) -> dict:
    for ip in list(service._pending):
        service._state_of(ip)
    assert not service._pending
    return service._state


class TestLazyPreListings:
    """A lazy service answers, lists and pickles exactly like one that
    builds every pre-listed IP's state at once."""

    @staticmethod
    def _pair(lag):
        policy = ListingPolicy(threshold=2, window=DAY, base_duration=DAY)
        return (
            DnsblService("rbl", policy, listing_lag=lag),
            _EagerService("rbl", policy, listing_lag=lag),
        )

    def _assert_same(self, lazy, eager):
        assert (lazy.queries, lazy.cache_hits, lazy.cache_misses) == (
            eager.queries, eager.cache_hits, eager.cache_misses
        )
        assert _materialised_state(lazy) == eager._state

    @settings(max_examples=200, deadline=None)
    @given(
        _ops,
        st.lists(st.floats(min_value=0, max_value=10 * DAY), max_size=40),
        st.sampled_from([0.0, HOUR]),
        st.integers(min_value=0, max_value=40),
    )
    def test_random_sequences_match_the_eager_service(
        self, ops, times, lag, split
    ):
        times = sorted(times + [10 * DAY] * (len(ops) - len(times)))
        lazy, eager = self._pair(lag)
        lazy_answers, eager_answers = [], []
        _apply(eager, ops, times, eager_answers)
        _apply(lazy, ops[:split], times[:split], lazy_answers)
        # A pickle round-trip mid-sequence, pending entries included.
        lazy = pickle.loads(pickle.dumps(lazy))
        _apply(lazy, ops[split:], times[split:], lazy_answers)
        assert lazy_answers == eager_answers
        self._assert_same(lazy, eager)

    def test_fresh_batch_stays_pending_until_touched(self):
        lazy, eager = self._pair(0.0)
        for service in (lazy, eager):
            service.force_list_many(["1.0.0.1", "1.0.0.2"], 0.0, DAY)
        assert lazy._state == {} and set(lazy._pending) == {
            "1.0.0.1", "1.0.0.2"
        }
        restored = pickle.loads(pickle.dumps(lazy))
        assert restored._pending == lazy._pending
        assert _materialised_state(
            pickle.loads(pickle.dumps(restored))
        ) == eager._state
        assert restored.is_listed("1.0.0.1", HOUR)
        assert set(restored._state) == {"1.0.0.1"}
        assert set(restored._pending) == {"1.0.0.2"}

    def test_duplicates_and_known_ips_take_the_per_ip_path(self):
        lazy, eager = self._pair(0.0)
        for service in (lazy, eager):
            service.is_listed("1.0.0.3", 0.0)  # queried before listed
            service.force_list_many(["1.0.0.1", "1.0.0.1"], 0.0, DAY)
            service.force_list_many(["1.0.0.3"], HOUR, DAY)
            service.force_list_many(["1.0.0.4"], HOUR, DAY)
            service.force_list_many(["1.0.0.4", "1.0.0.5"], 2 * HOUR, DAY)
        assert lazy._pending == {}
        assert lazy.is_listed("1.0.0.3", 2 * HOUR)
        assert eager.is_listed("1.0.0.3", 2 * HOUR)
        self._assert_same(lazy, eager)


class TestDefaultServices:
    def test_eight_operators(self):
        services = make_default_services()
        assert len(services) == 8
        names = {s.name for s in services}
        assert "spamhaus-zen" in names
        assert "cbl-abuseat" in names

    def test_policies_differ(self):
        services = make_default_services()
        thresholds = {s.policy.threshold for s in services}
        assert len(thresholds) > 1


class TestMonitor:
    def test_probes_every_pair_at_interval(self):
        simulator = Simulator()
        service = _service(threshold=1)
        monitor = BlacklistMonitor(
            simulator, [service], ["1.1.1.1", "2.2.2.2"], interval=4 * HOUR
        )
        monitor.start(until=DAY)
        simulator.run()
        # 6 probes within [0, 1 day): at 0h, 4h, 8h, 12h, 16h, 20h.
        assert len(monitor.observations) == 6 * 2

    def test_listed_days_counts_distinct_days(self):
        simulator = Simulator()
        service = _service(threshold=1)
        service.force_list("1.1.1.1", 0.0, 2 * DAY)
        monitor = BlacklistMonitor(
            simulator, [service], ["1.1.1.1"], interval=4 * HOUR
        )
        monitor.start(until=5 * DAY)
        simulator.run()
        assert monitor.listed_days("1.1.1.1") == 2.0

    def test_never_listed_ips(self):
        simulator = Simulator()
        service = _service(threshold=1)
        service.force_list("1.1.1.1", 0.0, DAY)
        monitor = BlacklistMonitor(
            simulator, [service], ["1.1.1.1", "2.2.2.2"], interval=4 * HOUR
        )
        monitor.start(until=DAY)
        simulator.run()
        assert monitor.never_listed_ips() == ["2.2.2.2"]

    def test_sink_receives_observations(self):
        simulator = Simulator()
        service = _service(threshold=1)
        seen = []
        monitor = BlacklistMonitor(
            simulator, [service], ["1.1.1.1"], interval=HOUR, sink=seen.append
        )
        monitor.start(until=3 * HOUR + 1)
        simulator.run()
        assert len(seen) == 4  # probes at 0h, 1h, 2h, 3h
        assert all(not obs.listed for obs in seen)
