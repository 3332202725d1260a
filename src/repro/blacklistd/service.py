"""DNSBL operators: trap-driven listing with time-based delisting.

The paper probed eight public blacklists (Barracuda, SpamCop, SpamHaus,
SpamCannibal, ORBITrbl, SORBS, CBL, PSBL/Surriel). We model each as a
:class:`DnsblService` with its own :class:`ListingPolicy` — they differ in
aggressiveness (how few trap hits trigger a listing), listing duration, and
whether repeat offenders get escalating durations, which is what produces
the paper's observation that a few servers stayed listed for 17–129 days
while most never appeared at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.util.simtime import DAY, HOUR
from repro.util.slots import slotted


@dataclass(frozen=True)
class ListingPolicy:
    """How an operator turns trap hits into listings."""

    #: Trap hits within ``window`` required to list an IP.
    threshold: int
    #: Sliding window over which hits are counted.
    window: float
    #: Duration of the first listing.
    base_duration: float
    #: Each subsequent listing lasts ``escalation`` times longer...
    escalation: float = 2.0
    #: ...capped at this duration.
    max_duration: float = 60 * DAY


@slotted
@dataclass
class _IpState:
    hits: list[float] = field(default_factory=list)
    listings: int = 0
    #: When the current/last listing became (or becomes) visible.
    listed_from: float = -1.0
    listed_until: float = -1.0


class DnsblService:
    """One blacklist operator.

    Query answers are memoised TTL-aware: every cached answer carries the
    time until which it stays valid — a "listed" answer lapses exactly when
    the listing does, a "not listed" answer lapses when a pending listing
    becomes visible (``listing_lag``) and otherwise never, since it can
    only be flipped by a new listing event — which is why
    :meth:`_list`/:meth:`force_list` drop the affected IP's entry.

    ``listing_lag``/``delisting_lag`` model operator latency (fault
    injection): a triggered listing only becomes query-visible
    ``listing_lag`` seconds later, and stays visible ``delisting_lag``
    seconds past its policy expiry. Both default to zero, which reproduces
    the instantaneous behaviour bit-for-bit.

    Pre-listings are lazy (DESIGN.md §5): campaigns seed hundreds of
    thousands of fresh bot IPs, and only the RBL filter ever reads them.
    A bulk :meth:`force_list_many` of fresh IPs records each IP in
    ``_pending`` (IP -> one shared ``(listed_from, listed_until)`` pair);
    the IP's :class:`_IpState` is built when something first touches it
    (:meth:`is_listed` cache miss, :meth:`record_trap_hit`,
    :meth:`force_list`/:meth:`force_list_many`). Every answer is that of
    building every state eagerly.
    """

    #: Class-wide switch so tests can compare cached vs uncached runs.
    CACHE_ENABLED = True

    def __getstate__(self) -> dict:
        # ``_state`` pickles as columns (tens of thousands of tiny objects
        # per service otherwise dominate simulation-checkpoint writes);
        # ``_pending`` as it is: its values are one shared pair per batch,
        # which pickle writes once.
        state = self.__dict__.copy()
        ip_state = state["_state"]
        state["_state"] = (
            tuple(ip_state.keys()),
            tuple(tuple(s.hits) for s in ip_state.values()),
            tuple(s.listings for s in ip_state.values()),
            tuple(s.listed_from for s in ip_state.values()),
            tuple(s.listed_until for s in ip_state.values()),
        )
        return state

    def __setstate__(self, state: dict) -> None:
        ips, hits, listings, listed_from, listed_until = state["_state"]
        state["_state"] = {
            ip: _IpState(list(h), n, f, u)
            for ip, h, n, f, u in zip(
                ips, hits, listings, listed_from, listed_until
            )
        }
        self.__dict__.update(state)

    def __init__(
        self,
        name: str,
        policy: ListingPolicy,
        *,
        listing_lag: float = 0.0,
        delisting_lag: float = 0.0,
    ) -> None:
        self.name = name
        self.policy = policy
        self.listing_lag = float(listing_lag)
        self.delisting_lag = float(delisting_lag)
        self._state: dict[str, _IpState] = {}
        #: Pre-listed IPs whose state is not built yet: ip ->
        #: ``(listed_from, listed_until)`` of a state with no hits and one
        #: listing.
        self._pending: dict[str, tuple[float, float]] = {}
        #: ip -> (answer, valid_until); stable "not listed" answers carry
        #: ``inf`` (they only flip via a listing event, which pops them).
        self._answer_cache: dict[str, tuple[bool, float]] = {}
        self.queries = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def _state_of(self, ip: str) -> Optional[_IpState]:
        """*ip*'s state, built now if it is a pending pre-listing."""
        state = self._state.get(ip)
        if state is None:
            pending = self._pending.pop(ip, None)
            if pending is not None:
                state = self._state[ip] = _IpState([], 1, *pending)
        return state

    def record_trap_hit(self, ip: str, now: float) -> None:
        """Register that *ip* delivered mail to one of our trap addresses."""
        state = self._state_of(ip)
        if state is None:
            state = self._state[ip] = _IpState()
        state.hits.append(now)
        # Trim hits that fell out of the sliding window.
        cutoff = now - self.policy.window
        state.hits = [t for t in state.hits if t >= cutoff]
        if len(state.hits) >= self.policy.threshold and state.listed_until <= now:
            self._list(ip, state, now)

    def _list(self, ip: str, state: _IpState, now: float) -> None:
        duration = min(
            self.policy.base_duration * (self.policy.escalation ** state.listings),
            self.policy.max_duration,
        )
        state.listings += 1
        # The operator publishes the listing ``listing_lag`` after the trap
        # evidence triggers it, and keeps it ``delisting_lag`` past expiry.
        visible_from = now + self.listing_lag
        state.listed_from = visible_from
        state.listed_until = visible_from + duration + self.delisting_lag
        state.hits.clear()
        self._answer_cache.pop(ip, None)

    def _answer(self, state: Optional[_IpState], now: float) -> tuple[bool, float]:
        """``(listed, valid_until)`` for one IP's state at *now*."""
        if state is None or now >= state.listed_until:
            return False, math.inf
        if now < state.listed_from:
            # Listing triggered but not yet published: "not listed", and
            # that answer goes stale the moment the listing appears.
            return False, state.listed_from
        return True, state.listed_until

    def is_listed(self, ip: str, now: float) -> bool:
        """DNSBL query: is *ip* currently listed?"""
        self.queries += 1
        if not DnsblService.CACHE_ENABLED:
            return self._answer(self._state_of(ip), now)[0]
        cached = self._answer_cache.get(ip)
        if cached is not None and now < cached[1]:
            self.cache_hits += 1
            return cached[0]
        self.cache_misses += 1
        answer = self._answer(self._state_of(ip), now)
        self._answer_cache[ip] = answer
        return answer[0]

    def force_list(self, ip: str, now: float, duration: float) -> None:
        """Administratively list *ip* (used to seed pre-listed botnet IPs).

        Takes effect immediately — no listing lag; these stand in for
        listings that predate the observation window.
        """
        state = self._state_of(ip)
        if state is None:
            state = self._state[ip] = _IpState()
        state.listings += 1
        if state.listed_from < 0 or state.listed_from > now:
            state.listed_from = now
        state.listed_until = max(state.listed_until, now + duration)
        self._answer_cache.pop(ip, None)

    def force_list_many(self, ips: list, now: float, duration: float) -> None:
        """Bulk :meth:`force_list` — one call per campaign per service
        instead of one per botnet member.

        Equivalent to calling ``force_list`` on each IP in order. When
        every IP is fresh (no state, not pending, no cached answer) and
        appears once, which is how campaigns seed their botnets, the
        batch is recorded with C-level dict operations and no per-IP
        object; otherwise each IP takes the ``force_list`` path.
        """
        fresh = dict.fromkeys(ips, (now, now + duration))
        if (
            len(fresh) == len(ips)
            and self._state.keys().isdisjoint(fresh)
            and self._pending.keys().isdisjoint(fresh)
            and self._answer_cache.keys().isdisjoint(fresh)
        ):
            self._pending.update(fresh)
            return
        for ip in ips:
            self.force_list(ip, now, duration)


#: Policies loosely ranked by real-world reputation for aggressiveness in
#: 2010: CBL/PSBL-style automated lists triggered on very few hits with
#: short listings; SpamHaus-style lists needed corroboration but listed
#: longer; SpamCannibal was notoriously sticky.
DEFAULT_SERVICE_POLICIES: dict[str, ListingPolicy] = {
    "barracuda-rbl": ListingPolicy(threshold=4, window=1 * DAY, base_duration=2 * DAY),
    "spamcop-bl": ListingPolicy(
        threshold=3, window=1 * DAY, base_duration=1 * DAY, escalation=1.5
    ),
    "spamhaus-zen": ListingPolicy(threshold=6, window=2 * DAY, base_duration=4 * DAY),
    "cannibal-bl": ListingPolicy(
        threshold=2,
        window=3 * DAY,
        base_duration=7 * DAY,
        escalation=3.0,
        max_duration=90 * DAY,
    ),
    "orbit-rbl": ListingPolicy(threshold=3, window=1 * DAY, base_duration=2 * DAY),
    "sorbs-spam": ListingPolicy(
        threshold=4, window=2 * DAY, base_duration=3 * DAY, escalation=2.5
    ),
    "cbl-abuseat": ListingPolicy(
        threshold=2, window=12 * HOUR, base_duration=12 * HOUR, escalation=1.5
    ),
    "psbl-surriel": ListingPolicy(
        threshold=2, window=1 * DAY, base_duration=1 * DAY, escalation=1.5
    ),
}


def make_default_services() -> list[DnsblService]:
    """Instantiate the eight blacklist operators probed in §5.1."""
    return [
        DnsblService(name, policy)
        for name, policy in DEFAULT_SERVICE_POLICIES.items()
    ]
