"""Aggregated-historical sender reputation (Menahem & Puzis style).

Scores each gray message against the recent spam/ham history of two
aggregation keys — the envelope sender's domain and the client's /24
network — over a sliding window of simulated time. A message is dropped
when the combined window holds enough observations to judge and the
spam share meets the threshold; otherwise the filter abstains and lets
the rest of the chain (or the CR quarantine) decide.

Like the content filter, history is labelled from the workload's ground
truth, standing in for the feedback corpus a deployed reputation system
accumulates. Score-then-record: the message being judged is not part of
the history that judges it. The filter is fully deterministic (no RNG):
each company's instance sees exactly its own mail in time order.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.core.filters.base import SpamFilter
from repro.core.message import EmailMessage, MessageKind
from repro.util.simtime import DAY


class _History:
    """Sliding window of (t, is_spam) observations for one key."""

    __slots__ = ("events", "spam")

    def __init__(self) -> None:
        self.events: Deque[Tuple[float, bool]] = deque()
        self.spam = 0

    def prune(self, horizon: float) -> None:
        events = self.events
        while events and events[0][0] < horizon:
            _, was_spam = events.popleft()
            if was_spam:
                self.spam -= 1

    def record(self, t: float, is_spam: bool) -> None:
        self.events.append((t, is_spam))
        if is_spam:
            self.spam += 1

    def __len__(self) -> int:
        return len(self.events)


def _sender_domain(env_from: Optional[str]) -> Optional[str]:
    if not env_from or "@" not in env_from:
        return None
    return env_from.rsplit("@", 1)[1]


def _client_net(client_ip: str) -> str:
    """/24 prefix — the aggregation granularity of the related work."""
    return client_ip.rsplit(".", 1)[0]


class SenderReputationFilter(SpamFilter):
    """Drop mail from (domain, /24) pairs with a spammy recent history.

    ``threshold`` is the spam share of the combined window at which the
    filter drops; ``min_observations`` is the combined history size below
    which it abstains (a fresh sender deserves the benefit of the
    doubt — exactly the property that lets CR-style quarantining coexist
    with reputation). Null-sender mail (bounces, challenges) has no
    domain key and is judged on the /24 alone.
    """

    name = "reputation"

    def __init__(
        self,
        window_days: float = 14.0,
        threshold: float = 0.9,
        min_observations: int = 12,
    ) -> None:
        if window_days <= 0:
            raise ValueError(f"window_days must be positive: {window_days}")
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1]: {threshold}")
        if min_observations < 1:
            raise ValueError(
                f"min_observations must be at least 1: {min_observations}"
            )
        self.window_seconds = window_days * DAY
        self.threshold = threshold
        self.min_observations = min_observations
        self._domains: Dict[str, _History] = {}
        self._networks: Dict[str, _History] = {}
        #: Messages dropped / abstained on, for introspection and tests.
        self.dropped = 0
        self.abstained = 0

    def _history(
        self, table: Dict[str, _History], key: str, horizon: float
    ) -> _History:
        history = table.get(key)
        if history is None:
            history = table[key] = _History()
        else:
            history.prune(horizon)
        return history

    def should_drop(self, message: EmailMessage, now: float) -> bool:
        horizon = now - self.window_seconds
        histories = []
        domain = _sender_domain(message.env_from)
        if domain is not None:
            histories.append(self._history(self._domains, domain, horizon))
        net_history = self._history(
            self._networks, _client_net(message.client_ip), horizon
        )
        histories.append(net_history)

        observations = sum(len(h) for h in histories)
        spam = sum(h.spam for h in histories)
        verdict = (
            observations >= self.min_observations
            and spam / observations >= self.threshold
        )
        if verdict:
            self.dropped += 1
        else:
            self.abstained += 1

        is_spam = message.kind is MessageKind.SPAM
        for history in histories:
            history.record(now, is_spam)
        return verdict
