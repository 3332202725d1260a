"""Length-framed append-only write-ahead log with group-commit fsync.

The zero-loss contract of the live frontend rests on one ordering: a
message's WAL record is appended **and fsynced** before the SMTP ``250``
leaves the socket. Whatever the kernel, the process, or ``kill -9`` does
after that instant, every acknowledged message is on disk; startup replay
re-drives the engine from the log and the
:class:`~repro.core.ledger.MessageLedger` re-derives the exact same
accounting. (The converse is *at-least-once*: a record can reach disk and
the client still never see its 250 — the client retries, which is the
normal SMTP contract.)

Frame format, little-endian::

    [u32 payload_len][payload bytes][u32 crc32(payload)]

Payloads are UTF-8 JSON objects; the log itself never interprets them.

Every reader of the log goes through one streaming reader,
:class:`FrameReader`, which reads the file a chunk at a time and checks
each frame's length and CRC. A damaged frame — cut anywhere by a crash,
a garbage length, a CRC mismatch — ends the intact prefix. If no intact
frame starts anywhere after it, the rest is a torn tail: those bytes were
never acknowledged, so :meth:`WriteAheadLog.open` truncates them and
loses nothing. An intact frame after the damage means the log is damaged
mid-file, and the reader raises :class:`WalCorruption`.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Iterator, List, Optional, Tuple

_U32 = struct.Struct("<I")
_FRAME_OVERHEAD = 8  # length prefix + crc suffix
#: The shortest payload a record has (``{}``). A shorter frame, such as
#: a run of zero bytes left at the end of the file, is damage.
_MIN_PAYLOAD = 2
#: File bytes the reader asks for at a time.
_CHUNK_BYTES = 1 << 20

#: Sanity bound on a single payload: anything larger is treated as
#: corruption (a garbage length prefix), not a legitimate record.
MAX_PAYLOAD_BYTES = 16 * 1024 * 1024

#: Records :meth:`FrameReader.batches` decodes with one ``json.loads``.
REPLAY_BATCH = 1024


class WalCorruption(RuntimeError):
    """An intact frame follows a damaged one — the log is damaged beyond
    the torn-tail case that crash recovery legally produces."""


class FrameReader:
    """One pass over the frames of an open log file, a chunk at a time.

    Iterating yields each intact frame's payload in append order and
    stops at the end of the file or at the first damaged frame. Damage
    with an intact frame anywhere after it raises :class:`WalCorruption`
    once the intact prefix has been yielded, so a consumer that must not
    act on a damaged log first makes a pass that keeps nothing
    (:meth:`WriteAheadLog.open` does). After a full pass, *good_end* is
    the offset just past the last intact frame and *frames* their count.
    The file's length is taken when the reader is made; bytes appended
    after that are not read.
    """

    def __init__(self, fh) -> None:
        self._fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.good_end = 0
        self.frames = 0

    @property
    def torn_tail_bytes(self) -> int:
        return self.size - self.good_end

    def __iter__(self) -> Iterator[bytes]:
        fh, size = self._fh, self.size
        crc32, unpack_from = zlib.crc32, _U32.unpack_from
        fh.seek(0)
        # buf[i] is the byte at file offset *offset*, where the next frame
        # starts; buf holds a chunk, or one frame longer than a chunk.
        buf, i, offset = b"", 0, 0
        while size - offset >= _FRAME_OVERHEAD + _MIN_PAYLOAD:
            if len(buf) - i < _U32.size:
                buf, i = self._refill(buf, i, _U32.size, size - offset)
            (length,) = unpack_from(buf, i)
            frame = length + _FRAME_OVERHEAD
            if (not _MIN_PAYLOAD <= length <= MAX_PAYLOAD_BYTES
                    or frame > size - offset):
                break  # a garbage length, or a frame the file cuts off
            if len(buf) - i < frame:
                buf, i = self._refill(buf, i, frame, size - offset)
            payload = buf[i + _U32.size : i + _U32.size + length]
            if unpack_from(buf, i + _U32.size + length)[0] != crc32(payload):
                break
            i += frame
            offset += frame
            self.good_end = offset
            self.frames += 1
            yield payload
        if offset < size:
            intact = _intact_frame_after(fh, offset + 1, size)
            if intact is not None:
                raise WalCorruption(
                    f"damaged frame at offset {offset} and an intact frame "
                    f"at offset {intact} — mid-log damage, not a torn tail"
                )

    def _refill(self, buf: bytes, i: int, need: int, left: int):
        """Keep buf[i:] and read on to at least *need* bytes (a chunk
        when the file has it), never past the *left* bytes the file holds
        from buf[i]'s offset on. Returns the new ``(buf, i)``."""
        rest = buf[i:]
        wanted = min(max(need, _CHUNK_BYTES), left) - len(rest)
        return rest + self._fh.read(wanted), 0

    def batches(self) -> Iterator[List[dict]]:
        """The decoded records in append order, :data:`REPLAY_BATCH` at a
        time: one ``json.loads`` over each batch's joined payloads."""
        batch: List[bytes] = []
        for payload in self:
            batch.append(payload)
            if len(batch) == REPLAY_BATCH:
                yield _decode(batch)
                batch = []
        if batch:
            yield _decode(batch)


def _decode(payloads: List[bytes]) -> List[dict]:
    return json.loads(b"[" + b",".join(payloads) + b"]")


def _intact_frame_after(fh, start: int, size: int) -> Optional[int]:
    """The offset of the first intact frame that begins at or after
    *start*, or ``None``. It tries every offset, but runs only past a
    damaged frame: on a torn tail it reads just the torn bytes, and on
    mid-log damage it stops at the next intact frame."""
    last = size - _FRAME_OVERHEAD - _MIN_PAYLOAD  # last offset a frame fits at
    position = start
    while position <= last:
        fh.seek(position)
        window = fh.read(min(_CHUNK_BYTES, last - position + 1) + _U32.size - 1)
        starts = len(window) - _U32.size + 1
        if starts <= 0:
            return None  # the file shrank under the reader: stop, not spin
        for j in range(starts):
            (length,) = _U32.unpack_from(window, j)
            offset = position + j
            if (_MIN_PAYLOAD <= length <= MAX_PAYLOAD_BYTES
                    and offset + length + _FRAME_OVERHEAD <= size):
                fh.seek(offset + _U32.size)
                body = fh.read(length + _U32.size)
                if (len(body) == length + _U32.size
                        and _U32.unpack_from(body, length)[0]
                        == zlib.crc32(memoryview(body)[:length])):
                    return offset
        position += starts
    return None


def scan_payloads(path: str) -> Tuple[List[dict], bool]:
    """Read-only scan of the log at *path* (no truncation, no lock).

    Returns ``(records, torn)``. Used by tests and the external chaos
    harness to count durable records while (or after) a server owns the
    file; :meth:`WriteAheadLog.open` is the mutating form the server uses.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return [], False
    with fh:
        reader = FrameReader(fh)
        records = [record for batch in reader.batches() for record in batch]
    return records, reader.torn_tail_bytes > 0


class WriteAheadLog:
    """One append-only log file plus its replay/truncate logic.

    Appends are buffered; :meth:`flush` pushes them through the OS down to
    the platter (``fsync``) and advances :attr:`flushed_seq`. Sequence
    numbers are 1-based and count records ever written to this file, so
    after replaying N records the next append is seq N+1 — the live
    engine uses the seq as the message id, which is what makes replay
    deterministic.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: Optional[object] = None
        #: Seq of the last record appended (buffered, not necessarily durable).
        self.appended_seq = 0
        #: Seq of the last record known fsynced.
        self.flushed_seq = 0
        #: Bytes discarded from a torn tail at open time (0 = clean).
        self.torn_tail_bytes = 0

    # -- lifecycle --------------------------------------------------------

    def open(self) -> int:
        """Check every frame, truncate any torn tail, open for append.

        Returns the number of intact records; :meth:`batches` decodes
        them. The check reads the log a chunk at a time and keeps
        nothing, and mid-log damage raises :class:`WalCorruption` here,
        before a caller can apply any record. After this call the
        existing records count as flushed (they survived at least one
        crash, so they are durable by construction).
        """
        good_end = size = records = 0
        try:
            with open(self.path, "rb") as fh:
                reader = FrameReader(fh)
                for _payload in reader:
                    pass
                good_end, size = reader.good_end, reader.size
                records = reader.frames
        except FileNotFoundError:
            pass
        self.torn_tail_bytes = size - good_end
        self._fh = open(self.path, "ab")
        if self.torn_tail_bytes:
            self._fh.truncate(good_end)
            self._fh.seek(good_end)
        self.appended_seq = self.flushed_seq = records
        return records

    def batches(self) -> Iterator[List[dict]]:
        """The records on disk in append order, decoded a batch at a time
        (call after :meth:`open`). Each batch is a fresh list that the
        caller drops when it moves on, so a replay never holds the whole
        log."""
        with open(self.path, "rb") as fh:
            yield from FrameReader(fh).batches()

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None

    # -- writes -----------------------------------------------------------

    def append(self, record: dict) -> int:
        """Buffer one record; returns its seq. Not durable until a
        :meth:`flush` covers it."""
        assert self._fh is not None, "WAL not open"
        payload = json.dumps(record, separators=(",", ":")).encode()
        self._fh.write(
            _U32.pack(len(payload)) + payload + _U32.pack(zlib.crc32(payload))
        )
        self.appended_seq += 1
        return self.appended_seq

    def flush(self) -> int:
        """Flush + fsync everything appended so far; returns the covered
        seq. One call durably commits the whole buffered batch — this is
        the group in group commit."""
        assert self._fh is not None, "WAL not open"
        target = self.appended_seq
        if target > self.flushed_seq:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self.flushed_seq = target
        return self.flushed_seq


__all__ = [
    "FrameReader",
    "MAX_PAYLOAD_BYTES",
    "REPLAY_BATCH",
    "WalCorruption",
    "WriteAheadLog",
    "scan_payloads",
]
