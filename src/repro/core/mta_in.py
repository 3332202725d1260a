"""Inbound MTA checks — the first layer of Figure 1.

The paper's MTA-IN drops more than 75 % of incoming mail before it ever
reaches the CR dispatcher, for five reasons (its §2 table):

=====================  =========
Malformed email          0.06 %
Unresolvable domain      4.19 %
No relay                 2.27 %
Sender rejected          0.03 %
Unknown recipient       62.36 %
=====================  =========

The check order below follows the paper's description: well-formedness
first, then sender-domain resolution, then relay policy, then site-level
sender blocks, and finally recipient validation (skipped for relayed
domains, which is why open relays "pass most of the messages to the next
layer").
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.config import CompanyConfig
from repro.core.message import EmailMessage
from repro.net.addresses import (
    _SPLIT_CACHE,
    _WELL_FORMED_CACHE,
    is_well_formed,
    split_address,
)
from repro.net.dns import DnsTemporaryFailure, Resolver


class DropReason(enum.Enum):
    """Why MTA-IN refused a message."""

    # Identity hash instead of Enum's Python-level name hash: members are
    # Counter keys in the analysis index's hottest pass, and equality is
    # identity for enums anyway.
    __hash__ = object.__hash__

    MALFORMED = "malformed"
    UNRESOLVABLE_DOMAIN = "unresolvable_domain"
    NO_RELAY = "no_relay"
    SENDER_REJECTED = "sender_rejected"
    UNKNOWN_RECIPIENT = "unknown_recipient"


#: Shared hint for messages that fail well-formedness: nothing after the
#: grammar check runs, so there is no sender domain and no post-DNS verdict.
_HINT_MALFORMED = (DropReason.MALFORMED, None, None)


class MtaIn:
    """First-layer checks of one company's inbound MTA."""

    def __init__(self, config: CompanyConfig, resolver: Resolver) -> None:
        self.config = config
        self.resolver = resolver
        self.accepted = 0
        #: Sender-domain checks skipped because DNS was temporarily down.
        self.dns_tempfails = 0
        self.dropped: dict[DropReason, int] = {reason: 0 for reason in DropReason}

    def check(self, message: EmailMessage) -> Optional[DropReason]:
        """Return ``None`` to accept *message*, or the drop reason.

        Batch-built messages carry a precomputed hint (see
        :meth:`precheck_batch`); for those, only the DNS resolution check
        — the one time-dependent step — runs here. Everything else takes
        the full :meth:`_classify` walk. A
        :class:`~repro.core.message.DoorRow` stands in for a hinted
        message the hint refuses (DESIGN.md §19): ``mta_hint`` is all
        this reads of it.
        """
        hint = message.mta_hint
        if hint is not None:
            reason, sender_domain, post = hint
            if reason is None:
                reason = post
                if sender_domain is not None:
                    try:
                        if not self.resolver.resolves(sender_domain):
                            reason = DropReason.UNRESOLVABLE_DOMAIN
                    except DnsTemporaryFailure:
                        self.dns_tempfails += 1
        else:
            reason = self._classify(message)
        if reason is None:
            self.accepted += 1
        else:
            self.dropped[reason] += 1
        return reason

    def _classify(self, message: EmailMessage) -> Optional[DropReason]:
        if not is_well_formed(message.env_to):
            return DropReason.MALFORMED
        # The null reverse-path ("<>", RFC 5321) marks delivery status
        # notifications; it is legal and skips every sender-side check.
        null_sender = message.env_from == ""
        if not null_sender:
            if not is_well_formed(message.env_from):
                return DropReason.MALFORMED
            sender_domain = message.env_from.rsplit("@", 1)[-1].lower()
            try:
                if not self.resolver.resolves(sender_domain):
                    return DropReason.UNRESOLVABLE_DOMAIN
            except DnsTemporaryFailure:
                # A real MTA would 451 and the remote would retry until the
                # weather cleared; inbound retries are not modelled, so a
                # transient failure passes the check rather than being
                # misclassified as UNRESOLVABLE_DOMAIN.
                self.dns_tempfails += 1
        rcpt_local, rcpt_domain = message.env_to.rsplit("@", 1)
        rcpt_domain = rcpt_domain.lower()
        if not self.config.accepts_domain(rcpt_domain):
            return DropReason.NO_RELAY
        if (
            not null_sender
            and message.env_from.lower() in self.config.rejected_senders
        ):
            return DropReason.SENDER_REJECTED
        if rcpt_domain == self.config.domain:
            if not self.config.is_protected_recipient(rcpt_local, rcpt_domain):
                return DropReason.UNKNOWN_RECIPIENT
        # Relayed domains: the server cannot validate recipients, so the
        # message passes (this is the open-relay behaviour from the paper).
        return None

    def precheck_batch(self, rows: list) -> list:
        """The DNS-independent MTA verdict of each row of a message batch.

        *rows* are in :class:`~repro.core.message.MessageBatch` layout
        (``env_from`` at index 1, ``env_to`` at 2). One linear sweep with
        every lookup hoisted to a local — the batch equivalent of
        :meth:`_classify`, minus the resolver step. Returns one
        ``mta_hint = (pre_dns_reason, sender_domain, post_dns_reason)``
        per row, for the message built from it:

        * ``pre_dns_reason`` — MALFORMED, concluded before DNS would run;
        * ``sender_domain`` — domain to resolve at delivery time (``None``
          for the null reverse-path, whose sender checks are skipped);
        * ``post_dns_reason`` — the verdict *assuming resolution passes*.

        Legal because everything except resolution depends only on the
        envelope and on per-run-static config (relay domains, rejected
        senders, the protected-user set); DNS alone is time-dependent
        (fault plans, tempfail weather) and stays in :meth:`check`.
        Addresses are lowercased here exactly as ``normalize_ingress``
        will lowercase them before :meth:`check` reads the hint.
        """
        config = self.config
        rejected = config.rejected_senders
        own_domain = config.domain
        # accepts_domain / is_protected_recipient are one-line set checks;
        # their operands are inlined here so the sweep pays set membership,
        # not bound-method calls, per message.
        relay_set = config._relay_set
        user_set = config._user_set
        wf = is_well_formed
        split = split_address
        # Memo dicts consulted inline: a hit costs one dict get instead of
        # a function call. Misses fall back to the functions, which own the
        # cap/clear policy (the dicts are cleared in place, never rebound,
        # so these references stay live).
        wf_cache_get = _WELL_FORMED_CACHE.get
        split_cache_get = _SPLIT_CACHE.get
        no_relay = DropReason.NO_RELAY
        sender_rejected = DropReason.SENDER_REJECTED
        unknown = DropReason.UNKNOWN_RECIPIENT
        hints = []
        append = hints.append
        for row in rows:
            # islower() is an allocation-free C scan; generator traffic is
            # already canonical, so the common case skips the str copy.
            env_to = row[2]
            if not env_to.islower():
                env_to = env_to.lower()
            verdict = wf_cache_get(env_to)
            if not (verdict if verdict is not None else wf(env_to)):
                append(_HINT_MALFORMED)
                continue
            env_from = row[1]
            if env_from:
                if not env_from.islower():
                    env_from = env_from.lower()
                verdict = wf_cache_get(env_from)
                if not (verdict if verdict is not None else wf(env_from)):
                    append(_HINT_MALFORMED)
                    continue
                pair = split_cache_get(env_from)
                sender_domain = (
                    pair if pair is not None else split(env_from)
                )[1]
            else:
                sender_domain = None
            pair = split_cache_get(env_to)
            if pair is None:
                pair = split(env_to)
            rcpt_local, rcpt_domain = pair
            if rcpt_domain == own_domain:
                if sender_domain is not None and env_from in rejected:
                    post = sender_rejected
                elif rcpt_local not in user_set:
                    post = unknown
                else:
                    post = None
            elif rcpt_domain not in relay_set:
                post = no_relay
            elif sender_domain is not None and env_from in rejected:
                post = sender_rejected
            else:
                post = None
            append((None, sender_domain, post))
        return hints
