"""WAL framing and crash-edge tests (the satellite of DESIGN.md §15).

The first half exercises the streaming frame reader: torn tails at every
byte offset, final-frame CRC damage (legal: truncated), mid-log CRC
damage (illegal: raises), and property tests that truncate a log at any
offset or flip any byte of it. The second half replays damaged and
interrupted logs through a full :class:`LiveCrService` and asserts the
*ledger reconciliation*, because "the WAL parses" is a much weaker claim
than "the engine that re-drove it conserves every message".
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import struct
import tempfile
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import wal as wal_module
from repro.serve.service import LiveCrService
from repro.serve.wal import (
    MAX_PAYLOAD_BYTES,
    WalCorruption,
    WriteAheadLog,
    scan_payloads,
)
from tests.serve_harness import live_stack, pick_targets


def _write_records(path, records):
    wal = WriteAheadLog(str(path))
    wal.open()
    for record in records:
        wal.append(record)
    wal.flush()
    wal.close()


def _replayed(wal) -> list:
    """Every record of an opened *wal*, through the replay batches."""
    return [record for batch in wal.batches() for record in batch]


def _frame(record_bytes: bytes) -> bytes:
    return (
        struct.pack("<I", len(record_bytes))
        + record_bytes
        + struct.pack("<I", zlib.crc32(record_bytes))
    )


class TestFraming:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "wal"
        records = [{"i": i, "payload": "x" * i} for i in range(20)]
        _write_records(path, records)
        read_back, torn = scan_payloads(str(path))
        assert read_back == records
        assert torn is False

    def test_sequence_numbers_continue_across_reopen(self, tmp_path):
        path = tmp_path / "wal"
        wal = WriteAheadLog(str(path))
        wal.open()
        assert wal.append({"i": 1}) == 1
        assert wal.append({"i": 2}) == 2
        wal.close()
        wal = WriteAheadLog(str(path))
        assert wal.open() == 2
        assert wal.append({"i": 3}) == 3
        wal.close()

    def test_missing_file_is_empty_not_error(self, tmp_path):
        records, torn = scan_payloads(str(tmp_path / "nope"))
        assert records == [] and torn is False

    @pytest.mark.parametrize("cut", [1, 2, 3, 4, 5, 7, 8, 11])
    def test_torn_tail_truncated_at_any_offset(self, tmp_path, cut):
        """Chop *cut* bytes off the final frame: every prefix length must
        recover exactly the complete records and repair the file."""
        path = tmp_path / "wal"
        records = [{"i": i} for i in range(5)]
        _write_records(path, records)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) - cut])

        wal = WriteAheadLog(str(path))
        assert wal.open() == 4
        assert _replayed(wal) == records[:4]
        assert wal.torn_tail_bytes > 0
        assert wal.appended_seq == 4
        # The torn bytes are gone: appends land where the tail was.
        wal.append({"i": "new"})
        wal.flush()
        wal.close()
        read_back, torn = scan_payloads(str(path))
        assert read_back == records[:4] + [{"i": "new"}]
        assert torn is False

    def test_final_frame_crc_damage_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "wal"
        _write_records(path, [{"i": 0}, {"i": 1}])
        data = bytearray(path.read_bytes())
        data[-6] ^= 0xFF  # flip a bit inside the last frame's crc zone
        path.write_bytes(bytes(data))
        wal = WriteAheadLog(str(path))
        assert wal.open() == 1
        assert _replayed(wal) == [{"i": 0}]
        assert wal.torn_tail_bytes > 0
        wal.close()

    def test_mid_log_crc_damage_raises(self, tmp_path):
        path = tmp_path / "wal"
        first = b'{"i": 0}'
        second = b'{"i": 1}'
        damaged = bytearray(_frame(first))
        damaged[5] ^= 0xFF  # corrupt the first frame's payload
        path.write_bytes(bytes(damaged) + _frame(second))
        with pytest.raises(WalCorruption):
            scan_payloads(str(path))
        with pytest.raises(WalCorruption):
            WriteAheadLog(str(path)).open()

    def test_garbage_length_prefix_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "wal"
        _write_records(path, [{"i": 0}])
        with open(path, "ab") as fh:
            fh.write(struct.pack("<I", MAX_PAYLOAD_BYTES + 1) + b"junk")
        wal = WriteAheadLog(str(path))
        assert wal.open() == 1
        assert _replayed(wal) == [{"i": 0}]
        assert wal.torn_tail_bytes == 8
        wal.close()

    def test_garbage_length_mid_log_raises(self, tmp_path):
        """A length prefix past the payload bound with an intact frame
        after it is mid-log damage, not a tail to truncate away."""
        path = tmp_path / "wal"
        path.write_bytes(
            struct.pack("<I", MAX_PAYLOAD_BYTES + 1) + b"junk"
            + _frame(b'{"i":1}')
        )
        with pytest.raises(WalCorruption):
            WriteAheadLog(str(path)).open()

    def test_zero_filled_tail_is_a_torn_tail(self, tmp_path):
        """Zero bytes past the last frame (a file extended but never
        written) read as empty frames with a matching CRC; they are a
        torn tail, not records."""
        path = tmp_path / "wal"
        _write_records(path, [{"i": 0}])
        with open(path, "ab") as fh:
            fh.write(bytes(64))
        wal = WriteAheadLog(str(path))
        assert wal.open() == 1
        assert wal.torn_tail_bytes == 64
        assert _replayed(wal) == [{"i": 0}]
        wal.close()

    def test_batches_are_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal_module, "REPLAY_BATCH", 4)
        path = tmp_path / "wal"
        records = [{"i": i} for i in range(10)]
        _write_records(path, records)
        wal = WriteAheadLog(str(path))
        assert wal.open() == 10
        batches = list(wal.batches())
        assert [len(batch) for batch in batches] == [4, 4, 2]
        assert [r for batch in batches for r in batch] == records
        wal.close()

    def test_flush_is_idempotent_and_monotonic(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"))
        wal.open()
        wal.append({"i": 0})
        assert wal.flush() == 1
        assert wal.flush() == 1  # nothing new: no second fsync needed
        wal.append({"i": 1})
        wal.append({"i": 2})
        assert wal.flush() == 3  # one flush covers the whole batch
        wal.close()


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=24),
)
_RECORDS = st.lists(
    st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=4),
    min_size=1,
    max_size=6,
)
#: Read sizes for the reader: frames cut by chunk ends, and one chunk.
_CHUNKS = st.sampled_from([1, 5, 64, 1 << 20])
#: Replay batch sizes: batches cut by the damage, and one batch.
_BATCHES = st.sampled_from([1, 2, 3, 1024])


def _log_bytes(records) -> tuple:
    """The bytes :class:`WriteAheadLog` writes for *records*, and the
    offset just past each frame."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "wal")
        _write_records(path, records)
        with open(path, "rb") as fh:
            data = fh.read()
    boundaries, offset = [], 0
    for record in records:
        offset += 8 + len(json.dumps(record, separators=(",", ":")).encode())
        boundaries.append(offset)
    assert boundaries[-1] == len(data)
    return data, boundaries


def _read_both_ways(data: bytes, chunk: int, batch: int):
    """``scan_payloads`` and ``open()`` + replay over a log holding
    *data*. Returns ``(records, torn_tail_bytes, bytes left on disk)``
    after checking that the two readers agree, or raises
    :class:`WalCorruption` after checking that both refuse and that the
    refused ``open()`` left the file alone."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(wal_module, "_CHUNK_BYTES", chunk), \
            mock.patch.object(wal_module, "REPLAY_BATCH", batch):
        path = os.path.join(tmp, "wal")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            scanned, torn = scan_payloads(path)
        except WalCorruption:
            with pytest.raises(WalCorruption):
                WriteAheadLog(path).open()
            with open(path, "rb") as fh:
                assert fh.read() == data
            raise
        wal = WriteAheadLog(path)
        count = wal.open()
        replayed = _replayed(wal)
        wal.close()
        assert count == len(replayed)
        assert replayed == scanned
        assert torn == (wal.torn_tail_bytes > 0)
        return replayed, wal.torn_tail_bytes, os.path.getsize(path)


class TestReaderProperties:
    """Any truncation or single-byte flip of a valid log ends in the
    longest intact prefix with the dropped bytes counted, or in
    :class:`WalCorruption` when an intact frame follows the damage —
    never a hang and never another exception — and ``scan_payloads``
    agrees with ``open()`` + replay on every case."""

    @settings(max_examples=150, deadline=None)
    @given(records=_RECORDS, chunk=_CHUNKS, batch=_BATCHES, data=st.data())
    def test_truncation_keeps_the_intact_prefix(self, records, chunk, batch,
                                                data):
        log, boundaries = _log_bytes(records)
        cut = data.draw(st.integers(0, len(log)), label="cut")
        kept = sum(1 for end in boundaries if end <= cut)
        good_end = boundaries[kept - 1] if kept else 0
        replayed, torn, size = _read_both_ways(log[:cut], chunk, batch)
        assert replayed == records[:kept]
        assert torn == cut - good_end
        assert size == good_end

    @settings(max_examples=150, deadline=None)
    @given(records=_RECORDS, chunk=_CHUNKS, batch=_BATCHES, data=st.data())
    def test_flipped_byte_is_a_torn_tail_or_corruption(self, records, chunk,
                                                       batch, data):
        log, boundaries = _log_bytes(records)
        at = data.draw(st.integers(0, len(log) - 1), label="at")
        mask = data.draw(st.integers(1, 255), label="mask")
        damaged = bytearray(log)
        damaged[at] ^= mask
        last_start = boundaries[-2] if len(boundaries) > 1 else 0
        if at < last_start:
            # Every frame after the damaged one is intact.
            with pytest.raises(WalCorruption):
                _read_both_ways(bytes(damaged), chunk, batch)
            return
        replayed, torn, size = _read_both_ways(bytes(damaged), chunk, batch)
        assert replayed == records[:-1]
        assert torn == len(log) - last_start
        assert size == last_start


def _drive_service(tmp_path, n_messages, batch_max=8):
    """Accept *n_messages* through a live stack; returns (wal_path, acked)."""

    async def scenario():
        async with live_stack(tmp_path, batch_max=batch_max) as (service, smtp, web):
            from tests.serve_harness import ehlo_client

            sender, users = pick_targets(service)
            client = await ehlo_client(smtp.port)
            acked = 0
            for i in range(n_messages):
                code = await client.send_message(
                    sender, users[i % len(users)], subject=f"SPAM: blast {i}"
                )
                if code == 250:
                    acked += 1
            await client.quit()
            return acked, service.wal.path

    return asyncio.run(scenario())


def _replay(wal_path) -> dict:
    """Boot a fresh service over *wal_path* and return its recovery
    reconciliation (the service is never started: replay only)."""
    service = LiveCrService(wal_path=str(wal_path))
    service.recover()
    report = service.last_reconciliation
    service.wal.close()
    return report


class TestReplayViaLedger:
    def test_replay_idempotence_twice_equals_once(self, tmp_path):
        """Replaying the same WAL in two fresh processes reconciles both
        times with identical ledger totals — replay has no side effects
        on the log and is deterministic."""
        acked, wal_path = _drive_service(tmp_path, 12)
        first = _replay(wal_path)
        second = _replay(wal_path)
        assert first["reconciled"] and second["reconciled"]
        assert first["accepted"] == second["accepted"] == acked
        assert first["per_company"] == second["per_company"]

    def test_torn_tail_replay_reconciles(self, tmp_path):
        """Cut the final record mid-frame (what kill -9 during a batch
        write leaves behind): replay drops exactly that record and the
        ledger still conserves every complete one."""
        acked, wal_path = _drive_service(tmp_path, 10)
        whole_records, _ = scan_payloads(str(wal_path))
        with open(wal_path, "ab") as fh:
            # a record the crash cut off: header + half a payload
            fh.write(struct.pack("<I", 64) + b'{"kind":"mail","mail_')
        report = _replay(wal_path)
        assert report["reconciled"]
        assert report["torn_tail_bytes"] > 0
        assert report["wal_records"] == len(whole_records)
        assert report["accepted"] == acked

    def test_fsync_batch_boundary_kill(self, tmp_path):
        """Truncate the WAL to each frame boundary of the final group
        commit — the states a kill lands in when it strikes between
        append and fsync. Every prefix must replay to a reconciled
        ledger with exactly the surviving records accepted."""
        acked, wal_path = _drive_service(tmp_path, 9, batch_max=3)
        assert acked == 9
        data = open(wal_path, "rb").read()
        all_records, _ = scan_payloads(str(wal_path))
        # boundaries[i] = byte offset just past frame i (so keeping
        # data[:boundaries[i]] keeps i+1 whole records).
        boundaries = []
        offset = 0
        while offset < len(data):
            (length,) = struct.unpack_from("<I", data, offset)
            offset += 4 + length + 4
            boundaries.append(offset)
        assert len(boundaries) == 9
        for kept, boundary in list(enumerate(boundaries, start=1))[-4:]:
            trial = tmp_path / f"wal.cut{kept}"
            trial.write_bytes(data[:boundary])
            report = _replay(trial)
            assert report["reconciled"], report
            assert report["wal_records"] == kept
            assert report["accepted"] <= kept
            survivors, torn = scan_payloads(str(trial))
            assert not torn
            assert survivors == all_records[:kept]

    @pytest.mark.parametrize("collector_on, fail_after",
                             [(True, 0), (True, 5), (False, 5)])
    def test_interrupted_recovery(self, tmp_path, monkeypatch,
                                  collector_on, fail_after):
        """An exception out of the replay after *fail_after* records
        leaves the log byte-identical and the caller's collector as it
        was (nothing frozen), and a fresh service still recovers."""
        acked, wal_path = _drive_service(tmp_path, 12)
        with open(wal_path, "rb") as fh:
            before = fh.read()

        class Interrupted(Exception):
            pass

        apply = LiveCrService._apply

        def failing_apply(service, seq, record):
            if seq > fail_after:
                raise Interrupted(seq)
            return apply(service, seq, record)

        was_enabled = gc.isenabled()
        (gc.enable if collector_on else gc.disable)()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(LiveCrService, "_apply", failing_apply)
                service = LiveCrService(wal_path=str(wal_path))
                with pytest.raises(Interrupted):
                    service.recover()
                service.wal.close()
            assert gc.isenabled() == collector_on
            assert gc.get_freeze_count() == 0
        finally:
            (gc.enable if was_enabled else gc.disable)()
        with open(wal_path, "rb") as fh:
            assert fh.read() == before
        report = _replay(wal_path)
        assert report["reconciled"]
        assert report["accepted"] == acked

    def test_acked_messages_survive_simulated_crash(self, tmp_path):
        """The headline invariant, in-process: everything 250-acked is in
        the WAL on disk at all times (we never reply before fsync), so a
        copy of the file taken at *any* moment replays to >= acked."""
        acked, wal_path = _drive_service(tmp_path, 15)
        records, torn = scan_payloads(str(wal_path))
        assert not torn
        assert len(records) >= acked
        report = _replay(wal_path)
        assert report["reconciled"]
        assert report["accepted"] >= acked
