"""Unit tests for the inbound MTA checks (the §2 drop table)."""

import pytest

from repro.core.message import make_message
from repro.core.mta_in import DropReason, MtaIn
from repro.net.dns import DnsRegistry, Resolver

from tests.helpers import (
    COMPANY_DOMAIN,
    CONTACT,
    CONTACT_DOMAIN,
    USER_ADDRESS,
    make_micro_env,
)


@pytest.fixture
def env():
    return make_micro_env()


def _check(env, env_from=CONTACT, env_to=USER_ADDRESS):
    message = make_message(0.0, env_from, env_to)
    return env.installation.mta_in.check(message)


class TestChecks:
    def test_accepts_clean_message(self, env):
        assert _check(env) is None

    def test_malformed_sender(self, env):
        assert _check(env, env_from="no-at-sign") is DropReason.MALFORMED

    def test_malformed_recipient(self, env):
        assert (
            _check(env, env_to="double@@" + COMPANY_DOMAIN)
            is DropReason.MALFORMED
        )

    def test_unresolvable_sender_domain(self, env):
        assert (
            _check(env, env_from="x@ghost-domain.example")
            is DropReason.UNRESOLVABLE_DOMAIN
        )

    def test_no_relay_for_foreign_recipient(self, env):
        assert (
            _check(env, env_to=f"someone@{CONTACT_DOMAIN}")
            is DropReason.NO_RELAY
        )

    def test_rejected_sender(self, env):
        assert (
            _check(env, env_from=f"blocked@{CONTACT_DOMAIN}")
            is DropReason.SENDER_REJECTED
        )

    def test_rejected_sender_case_insensitive(self, env):
        assert (
            _check(env, env_from=f"Blocked@{CONTACT_DOMAIN.upper()}")
            is DropReason.SENDER_REJECTED
        )

    def test_unknown_recipient(self, env):
        assert (
            _check(env, env_to=f"ghost@{COMPANY_DOMAIN}")
            is DropReason.UNKNOWN_RECIPIENT
        )

    def test_check_order_malformed_before_unresolvable(self, env):
        # A malformed sender is reported as MALFORMED even though its
        # "domain" would also fail to resolve.
        assert _check(env, env_from="bad<chars>@ghost.example") is (
            DropReason.MALFORMED
        )

    def test_check_order_unresolvable_before_unknown_recipient(self, env):
        assert _check(
            env,
            env_from="x@ghost-domain.example",
            env_to=f"ghost@{COMPANY_DOMAIN}",
        ) is DropReason.UNRESOLVABLE_DOMAIN

    def test_check_order_relay_before_recipient_validation(self, env):
        # Foreign recipients hit the relay policy, not recipient validation.
        assert (
            _check(env, env_to="anyone@unrelated.example")
            is DropReason.NO_RELAY
        )


class TestOpenRelay:
    def test_relay_domain_recipient_accepted_without_validation(self):
        env = make_micro_env(open_relay=True)
        assert _check(env, env_to="whoever@relayed.example") is None

    def test_non_relay_foreign_domain_still_refused(self):
        env = make_micro_env(open_relay=True)
        assert (
            _check(env, env_to="whoever@other.example") is DropReason.NO_RELAY
        )

    def test_own_domain_still_validated(self):
        env = make_micro_env(open_relay=True)
        assert (
            _check(env, env_to=f"ghost@{COMPANY_DOMAIN}")
            is DropReason.UNKNOWN_RECIPIENT
        )


class TestCounters:
    def test_counters_track_decisions(self, env):
        mta = env.installation.mta_in
        _check(env)
        _check(env, env_to=f"ghost@{COMPANY_DOMAIN}")
        _check(env, env_to=f"ghost2@{COMPANY_DOMAIN}")
        assert mta.accepted == 1
        assert mta.dropped[DropReason.UNKNOWN_RECIPIENT] == 2

    def test_standalone_mta_in(self):
        registry = DnsRegistry()
        registry.register_mail_domain(CONTACT_DOMAIN, "1.1.1.1")
        from repro.core.config import CompanyConfig

        config = CompanyConfig(
            company_id="c",
            name="C",
            domain="solo.example",
            users=("a",),
            mta_in_ip="2.2.2.2",
            mta_out_ip="2.2.2.3",
            challenge_ip="2.2.2.3",
        )
        mta = MtaIn(config, Resolver(registry))
        message = make_message(0.0, CONTACT, "a@solo.example")
        assert mta.check(message) is None


class TestPrecheckBatchEquivalence:
    """``precheck_batch`` + hinted ``check`` must equal the plain
    ``_classify`` walk — same verdict, same counters — for every drop
    reason and for open-relay configs.

    The batch path lowercases addresses itself (mirroring what
    ``normalize_ingress`` does before ``check`` reads the hint), so the
    hinted arm normalizes the message fields the same way the engine does.
    """

    # (env_from, env_to) envelopes covering every verdict, with mixed-case
    # variants to exercise the islower fast paths on both arms.
    ENVELOPES = [
        (CONTACT, USER_ADDRESS),                          # accept
        ("", USER_ADDRESS),                               # null sender accept
        ("Bob@Partner.Example", f"Alice@{COMPANY_DOMAIN}"),  # mixed case
        ("no-at-sign", USER_ADDRESS),                     # malformed sender
        (CONTACT, "double@@" + COMPANY_DOMAIN),           # malformed rcpt
        (CONTACT, "what even is this"),                   # malformed rcpt
        ("x@ghost-domain.example", USER_ADDRESS),         # unresolvable
        (CONTACT, f"someone@{CONTACT_DOMAIN}"),           # no relay
        ("", f"someone@{CONTACT_DOMAIN}"),                # null + no relay
        (f"blocked@{CONTACT_DOMAIN}", USER_ADDRESS),      # rejected sender
        (f"BLOCKED@{CONTACT_DOMAIN}", USER_ADDRESS),      # rejected, cased
        (CONTACT, f"nobody@{COMPANY_DOMAIN}"),            # unknown recipient
        (CONTACT, f"NoBody@{COMPANY_DOMAIN}"),            # unknown, cased
        (CONTACT, "anyone@relayed.example"),              # relay (if open)
        (f"blocked@{CONTACT_DOMAIN}", "anyone@relayed.example"),
        ("x@ghost-domain.example", "anyone@relayed.example"),
    ]

    @staticmethod
    def _normalize(message):
        # What the engine's inlined normalize_ingress does before check().
        if not message.env_from.islower():
            message.env_from = message.env_from.lower()
        if not message.env_to.islower():
            message.env_to = message.env_to.lower()

    @pytest.mark.parametrize("open_relay", [False, True])
    def test_hinted_check_equals_classify(self, open_relay):
        batched_env = make_micro_env(open_relay=open_relay)
        plain_env = make_micro_env(open_relay=open_relay)
        batched_mta = batched_env.installation.mta_in
        plain_mta = plain_env.installation.mta_in

        batch = [
            make_message(0.0, f, t, client_ip="10.2.0.9")
            for f, t in self.ENVELOPES
        ]
        hints = batched_mta.precheck_batch(
            [(m.t, m.env_from, m.env_to) for m in batch]
        )
        assert len(hints) == len(batch)
        for message, hint in zip(batch, hints):
            assert hint is not None
            message.mta_hint = hint

        for (env_from, env_to), message in zip(self.ENVELOPES, batch):
            self._normalize(message)
            hinted = batched_mta.check(message)
            # The plain arm goes through the same ingress normalization —
            # in production normalize runs before check() either way.
            twin = make_message(0.0, env_from, env_to, client_ip="10.2.0.9")
            self._normalize(twin)
            plain = plain_mta.check(twin)
            assert hinted is plain, (env_from, env_to, hinted, plain)

        assert batched_mta.accepted == plain_mta.accepted
        assert batched_mta.dropped == plain_mta.dropped
        assert batched_mta.dns_tempfails == plain_mta.dns_tempfails

    def test_hint_resolution_is_deferred_to_check_time(self):
        """The hint must not bake in a DNS verdict: a domain that becomes
        unresolvable between precheck and delivery is still dropped."""
        env = make_micro_env()
        mta = env.installation.mta_in
        message = make_message(0.0, CONTACT, USER_ADDRESS)
        (message.mta_hint,) = mta.precheck_batch(
            [(message.t, message.env_from, message.env_to)]
        )
        pre_dns, sender_domain, post = message.mta_hint
        assert pre_dns is None and post is None
        assert sender_domain == CONTACT_DOMAIN
        # Remove the sender's records after precheck: check() must notice.
        env.registry.remove_records(CONTACT_DOMAIN, DnsRegistry.A)
        env.registry.remove_records(CONTACT_DOMAIN, DnsRegistry.MX)
        assert mta.check(message) is DropReason.UNRESOLVABLE_DOMAIN
