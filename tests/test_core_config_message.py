"""Unit tests for company configuration and the message model."""

import pickle
from dataclasses import fields

import pytest

from repro.core.config import CompanyConfig, FilterChainSpec, FilterSettings
from repro.core.message import (
    MessageKind,
    SenderClass,
    make_message,
    reset_msg_ids,
)


def _config(**overrides):
    defaults = dict(
        company_id="c0",
        name="C0",
        domain="corp.example",
        users=("alice", "bob"),
        mta_in_ip="1.1.1.1",
        mta_out_ip="1.1.1.2",
        challenge_ip="1.1.1.3",
    )
    defaults.update(overrides)
    return CompanyConfig(**defaults)


class TestCompanyConfig:
    def test_protected_recipient(self):
        config = _config()
        assert config.is_protected_recipient("alice", "corp.example")
        assert not config.is_protected_recipient("ghost", "corp.example")
        assert not config.is_protected_recipient("alice", "other.example")

    def test_accepts_domain(self):
        config = _config(relay_domains=("relay.example",))
        assert config.accepts_domain("corp.example")
        assert config.accepts_domain("relay.example")
        assert not config.accepts_domain("other.example")

    def test_open_relay_flag(self):
        assert not _config().open_relay
        assert _config(relay_domains=("r.example",)).open_relay

    def test_dual_outbound(self):
        assert _config().dual_outbound
        assert not _config(challenge_ip="1.1.1.2").dual_outbound

    def test_frozen(self):
        config = _config()
        with pytest.raises(Exception):
            config.domain = "x.example"  # type: ignore[misc]

    def test_dataclasses_replace_keeps_lookup_sets(self):
        import dataclasses

        replaced = dataclasses.replace(_config(), challenge_dedup=False)
        assert not replaced.challenge_dedup
        assert replaced.is_protected_recipient("alice", "corp.example")

    def test_filter_settings_defaults_match_paper(self):
        # The product ran antivirus, reverse DNS and a SpamHaus blacklist;
        # SPF was only evaluated offline (Fig. 12).
        assert FilterChainSpec().members == ("antivirus", "reverse_dns", "rbl")
        assert FilterSettings().rbl_provider == "spamhaus-zen"


class TestMessageModel:
    def test_ids_are_unique_and_increasing(self):
        a = make_message(0.0, "s@x.com", "u@c.com")
        b = make_message(0.0, "s@x.com", "u@c.com")
        assert b.msg_id == a.msg_id + 1

    def test_reset_msg_ids(self):
        make_message(0.0, "s@x.com", "u@c.com")
        reset_msg_ids()
        fresh = make_message(0.0, "s@x.com", "u@c.com")
        assert fresh.msg_id == 1

    def test_defaults(self):
        message = make_message(5.0, "s@x.com", "u@c.com")
        assert message.kind is MessageKind.LEGIT
        assert message.sender_class is SenderClass.REAL
        assert message.campaign_id is None
        assert not message.has_virus

    def test_slots_prevent_stray_attributes(self):
        message = make_message(0.0, "s@x.com", "u@c.com")
        with pytest.raises(AttributeError):
            message.extra = 1  # type: ignore[attr-defined]

    def test_slotted_classes_carry_no_instance_dict(self):
        """Per-message, per-IP and per-log-record objects are the bulk of
        a run's memory; a ``__dict__`` on any would move every peak-RSS
        figure. Every store table's record is slotted except the
        blacklist probe's."""
        from repro.analysis.store import SCHEMA
        from repro.blacklistd.monitor import ProbeObservation
        from repro.blacklistd.service import _IpState

        message = make_message(0.0, "s@x.com", "u@c.com")
        records = [
            cls(*range(len(fields(cls))))
            for _table, _tag, cls in SCHEMA
            if cls is not ProbeObservation
        ]
        assert len(records) == 11
        for obj in (message, _IpState(), *records):
            cls = type(obj)
            assert cls.__slots__ == tuple(f.name for f in fields(cls))
            assert not hasattr(obj, "__dict__")
            assert pickle.loads(pickle.dumps(obj)) == obj


class TestMsgIdBlockAllocation:
    """``allocate_msg_id_block(n)`` must be indistinguishable from *n*
    sequential ``make_message`` allocations — same ids, same counter."""

    def test_block_equals_sequential(self):
        from repro.core.message import allocate_msg_id_block, snapshot_msg_ids

        reset_msg_ids()
        sequential = [
            make_message(0.0, "s@x.com", "u@c.com").msg_id for _ in range(7)
        ]
        after_sequential = snapshot_msg_ids()

        reset_msg_ids()
        first = allocate_msg_id_block(7)
        block = list(range(first, first + 7))

        assert block == sequential
        assert snapshot_msg_ids() == after_sequential

    def test_block_interleaves_with_single_allocation(self):
        from repro.core.message import allocate_msg_id_block

        reset_msg_ids()
        single = make_message(0.0, "s@x.com", "u@c.com").msg_id
        first = allocate_msg_id_block(3)
        next_single = make_message(0.0, "s@x.com", "u@c.com").msg_id
        assert single == 1
        assert first == 2
        assert next_single == 5  # block consumed ids 2, 3, 4

    def test_zero_length_block_consumes_nothing(self):
        from repro.core.message import allocate_msg_id_block, snapshot_msg_ids

        reset_msg_ids()
        before = snapshot_msg_ids()
        allocate_msg_id_block(0)
        assert snapshot_msg_ids() == before


class TestMessageBatchFinalize:
    """The struct-of-arrays batch must reproduce per-message construction:
    ids by generation order, stable sort by time."""

    @staticmethod
    def _row(t, env_from="s@x.com", env_to="u@c.com"):
        return (
            t, env_from, env_to, "", 8_000, "0.0.0.0",
            MessageKind.LEGIT, SenderClass.REAL, None, False,
        )

    @staticmethod
    def _finalize(batch):
        from repro.core.message import allocate_msg_id_block

        batch.seal()
        return batch.materialize(allocate_msg_id_block(len(batch)))

    def test_matches_sequential_make_message(self):
        from repro.core.message import MessageBatch

        times = [5.0, 1.0, 3.0, 3.0, 2.0]
        reset_msg_ids()
        expected = [
            make_message(t, f"s{i}@x.com", "u@c.com")
            for i, t in enumerate(times)
        ]
        # What the pre-batch generator did: allocate in generation order,
        # then stable-sort arrivals by time.
        expected.sort(key=lambda m: m.t)

        reset_msg_ids()
        batch = MessageBatch()
        for i, t in enumerate(times):
            batch.rows.append(self._row(t, env_from=f"s{i}@x.com"))
            batch.handlers.append(None)
        out_times, _, messages = self._finalize(batch)

        assert out_times == [m.t for m in expected]
        assert [m.msg_id for m in messages] == [m.msg_id for m in expected]
        assert messages == expected

    def test_same_time_rows_keep_generation_order(self):
        from repro.core.message import MessageBatch

        reset_msg_ids()
        batch = MessageBatch()
        for i in range(4):
            batch.rows.append(self._row(2.0, env_from=f"s{i}@x.com"))
            batch.handlers.append(i)
        _, handlers, messages = self._finalize(batch)
        assert handlers == [0, 1, 2, 3]
        assert [m.msg_id for m in messages] == [1, 2, 3, 4]

    def test_empty_batch(self):
        from repro.core.message import MessageBatch, snapshot_msg_ids

        reset_msg_ids()
        assert self._finalize(MessageBatch()) == ([], [], [])
        assert snapshot_msg_ids() == 0
