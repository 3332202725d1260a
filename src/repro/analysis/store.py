"""The aggregation store — our stand-in for the paper's Postgres database.

A :class:`LogStore` holds every log record the simulated deployment emits,
in insertion (= time) order, plus a shared, lazily-materialised
:class:`~repro.analysis.index.AnalysisIndex` over them. It is append-only
during a run; analyses treat it as read-only.

Every append helper bumps its table's version counter, so aggregates the
index built over that table are invalidated precisely — an append to
``releases`` never throws away the expensive MTA pass, and a stale
aggregate is never served after any append.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from dataclasses import is_dataclass
from typing import Iterator, Optional

from repro.analysis.index import AnalysisIndex
from repro.analysis.records import (
    ChallengeOutcomeRecord,
    ChallengeRecord,
    CrashRecord,
    DigestRecord,
    DispatchRecord,
    ExpiryRecord,
    MtaRecord,
    OutboundMailRecord,
    ReleaseRecord,
    WebAccessRecord,
    WhitelistChangeRecord,
)
from repro.blacklistd.monitor import ProbeObservation

#: The measurement database, declared once: ``(store attribute, JSONL
#: tag, record class)`` per table, in schema order. ``TABLES``, the
#: store's constructor, the JSONL codec
#: (:mod:`repro.analysis.persistence`) and the content digest all read
#: it, and its order is the digest order.
SCHEMA = (
    ("mta", "mta", MtaRecord),
    ("dispatch", "dispatch", DispatchRecord),
    ("challenges", "challenge", ChallengeRecord),
    ("challenge_outcomes", "outcome", ChallengeOutcomeRecord),
    ("web_access", "web", WebAccessRecord),
    ("releases", "release", ReleaseRecord),
    ("whitelist_changes", "whitelist", WhitelistChangeRecord),
    ("digests", "digest", DigestRecord),
    ("expiries", "expiry", ExpiryRecord),
    ("outbound", "outbound", OutboundMailRecord),
    ("probes", "probe", ProbeObservation),
    ("crashes", "crash", CrashRecord),
)

#: Names of the record-list attributes, in schema order.
TABLES = tuple(table for table, _tag, _cls in SCHEMA)


#: Marker tag for columnar-packed tables inside a pickled store.
_COLUMNAR = "columnar-v1"

#: Tables below this row count pickle as plain lists; the packing
#: overhead only pays off on large ones.
_COLUMNAR_MIN_ROWS = 64


def _pack_rows(rows: list) -> object:
    """Transpose a homogeneous record list into per-field columns.

    Pickling N small dataclass instances pays per-object dispatch N
    times; a tuple of primitive columns serialises at raw C speed and
    at roughly half the byte size (checkpoints, the run cache, and
    worker→parent transfers all go through here). Heterogeneous or
    small lists are returned unchanged.
    """
    if len(rows) < _COLUMNAR_MIN_ROWS:
        return rows
    cls = type(rows[0])
    if not is_dataclass(cls) or any(type(r) is not cls for r in rows):
        return rows
    names = tuple(f.name for f in dataclass_fields(cls))
    return (
        _COLUMNAR,
        cls,
        tuple(tuple(getattr(r, n) for r in rows) for n in names),
    )


def _unpack_rows(value: object) -> list:
    """Inverse of :func:`_pack_rows`; passes plain lists through."""
    if (
        isinstance(value, tuple)
        and len(value) == 3
        and value[0] == _COLUMNAR
    ):
        _, cls, columns = value
        # Dataclass __init__ takes fields in declaration order, which is
        # exactly the column order _pack_rows emitted.
        return [cls(*values) for values in zip(*columns)]
    return value


# ---------------------------------------------------------------------------
# Spill-to-disk tables
# ---------------------------------------------------------------------------


#: Default in-memory tail bound per table before a chunk spills to disk.
SPILL_CHUNK_ROWS = 50_000


@dataclass(frozen=True)
class SpillConfig:
    """Where and how eagerly a :class:`LogStore` spills to disk."""

    directory: str
    chunk_rows: int = SPILL_CHUNK_ROWS


class SpillTable:
    """An append-only record table with a bounded in-memory tail.

    Rows accumulate in ``tail``; once it reaches ``chunk_rows`` they are
    packed columnar (the same ``columnar-v1`` layout pickled checkpoints
    use) and appended as one framed pickle to this table's chunk file.
    Iteration replays spilled chunks from disk in order, one chunk in
    memory at a time, then the live tail — so full-table consumers see
    exactly the list a plain in-memory table would hold, while resident
    memory is bounded by one chunk.

    The chunk file is strictly append-only: a checkpoint snapshot carries
    the chunk offsets valid at snapshot time, and a run resumed from it
    simply appends new chunks after the file's current end. Bytes written
    between the snapshot and the crash are never referenced again — dead
    weight on disk, invisible to iteration, so resume stays byte-identical
    without any truncation dance.
    """

    __slots__ = ("path", "chunk_rows", "tail", "_chunks", "_spilled_rows",
                 "bytes_spilled")

    def __init__(self, path: str, chunk_rows: int = SPILL_CHUNK_ROWS) -> None:
        self.path = path
        self.chunk_rows = chunk_rows
        self.tail: list = []
        #: (byte offset, row count) per spilled chunk, in append order.
        self._chunks: list = []
        self._spilled_rows = 0
        self.bytes_spilled = 0

    def append(self, record) -> None:
        self.tail.append(record)
        if len(self.tail) >= self.chunk_rows:
            self.flush()

    def flush(self) -> None:
        """Spill the tail as one framed columnar chunk."""
        if not self.tail:
            return
        payload = pickle.dumps(
            _pack_rows(self.tail), protocol=pickle.HIGHEST_PROTOCOL
        )
        with open(self.path, "ab") as handle:
            offset = handle.tell()
            handle.write(struct.pack("<Q", len(payload)))
            handle.write(payload)
        self._chunks.append((offset, len(self.tail)))
        self._spilled_rows += len(self.tail)
        self.bytes_spilled += len(payload) + 8
        self.tail = []

    def _load_chunk(self, offset: int) -> list:
        with open(self.path, "rb") as handle:
            handle.seek(offset)
            (size,) = struct.unpack("<Q", handle.read(8))
            return _unpack_rows(pickle.loads(handle.read(size)))

    def chunks(self) -> Iterator[list]:
        """Yield the table as successive record lists, in record order."""
        for offset, _rows in self._chunks:
            yield self._load_chunk(offset)
        if self.tail:
            yield self.tail

    def __iter__(self):
        for chunk in self.chunks():
            yield from chunk

    def __len__(self) -> int:
        return self._spilled_rows + len(self.tail)

    def __getitem__(self, index):
        # Convenience for tests and small tables; O(chunks) on cold data.
        if isinstance(index, slice):
            return _stream_slice(self, index)
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(index)
        seen = 0
        for offset, rows in self._chunks:
            if index < seen + rows:
                return self._load_chunk(offset)[index - seen]
            seen += rows
        return self.tail[index - seen]

    def __getstate__(self) -> dict:
        # Ship chunk *references* plus the packed tail: a worker handing
        # its store to the parent moves O(tail) bytes, not O(history) —
        # the spilled chunks stay where they are on shared disk.
        return {
            "path": self.path,
            "chunk_rows": self.chunk_rows,
            "tail": _pack_rows(self.tail),
            "chunks": self._chunks,
            "spilled_rows": self._spilled_rows,
            "bytes_spilled": self.bytes_spilled,
        }

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        self.chunk_rows = state["chunk_rows"]
        self.tail = _unpack_rows(state["tail"])
        self._chunks = state["chunks"]
        self._spilled_rows = state["spilled_rows"]
        self.bytes_spilled = state["bytes_spilled"]


def _stream_slice(table, index: slice) -> list:
    """Slice a streaming table without materialising the whole of it.

    A contiguous forward slice (step 1) walks the record stream once and
    keeps only the requested range — peak memory is the *result*, not the
    table. Other steps fall back to a full copy; no streaming caller
    needs them.
    """
    from itertools import islice

    start, stop, step = index.indices(len(table))
    if step == 1:
        return list(islice(iter(table), start, stop))
    return list(table)[index]


class LogStore:
    """Typed, append-only collection of all measurement logs.

    With a :class:`SpillConfig` the record tables become
    :class:`SpillTable`\\ s streaming history to columnar chunk files under
    ``spill.directory``, keeping resident memory bounded by the live
    tails; without one they are plain lists, exactly as before.
    """

    def __init__(self, spill: Optional[SpillConfig] = None) -> None:
        self.spill = spill
        if spill is not None:
            os.makedirs(spill.directory, exist_ok=True)
        for table in TABLES:
            setattr(
                self,
                table,
                [] if spill is None else SpillTable(
                    os.path.join(spill.directory, f"{table}.chunks"),
                    spill.chunk_rows,
                ),
            )
        self._versions: dict[str, int] = {table: 0 for table in TABLES}
        self._index: Optional[AnalysisIndex] = None

    # -- append helpers (every one invalidates its table's aggregates) ---

    def add_mta(self, record: MtaRecord) -> None:
        self.mta.append(record)
        self._versions["mta"] += 1

    def add_dispatch(self, record: DispatchRecord) -> None:
        self.dispatch.append(record)
        self._versions["dispatch"] += 1

    def add_challenge(self, record: ChallengeRecord) -> None:
        self.challenges.append(record)
        self._versions["challenges"] += 1

    def add_challenge_outcome(self, record: ChallengeOutcomeRecord) -> None:
        self.challenge_outcomes.append(record)
        self._versions["challenge_outcomes"] += 1

    def add_web_access(self, record: WebAccessRecord) -> None:
        self.web_access.append(record)
        self._versions["web_access"] += 1

    def add_release(self, record: ReleaseRecord) -> None:
        self.releases.append(record)
        self._versions["releases"] += 1

    def add_whitelist_change(self, record: WhitelistChangeRecord) -> None:
        self.whitelist_changes.append(record)
        self._versions["whitelist_changes"] += 1

    def add_digest(self, record: DigestRecord) -> None:
        self.digests.append(record)
        self._versions["digests"] += 1

    def add_expiry(self, record: ExpiryRecord) -> None:
        self.expiries.append(record)
        self._versions["expiries"] += 1

    def add_outbound(self, record: OutboundMailRecord) -> None:
        self.outbound.append(record)
        self._versions["outbound"] += 1

    def add_probe(self, record: ProbeObservation) -> None:
        self.probes.append(record)
        self._versions["probes"] += 1

    def add_crash(self, record: CrashRecord) -> None:
        self.crashes.append(record)
        self._versions["crashes"] += 1

    # -- the shared index -------------------------------------------------

    def table_version(self, table: str) -> int:
        """Monotonic append counter for *table* (index invalidation)."""
        return self._versions[table]

    def index(self) -> AnalysisIndex:
        """The shared single-pass aggregate index over this store."""
        if self._index is None:
            self._index = AnalysisIndex(self)
        return self._index

    def drop_indices(self) -> None:
        """Discard the lazily-built analysis index.

        It is a pure cache over the record lists, so dropping it never
        loses data; the parallel runner calls this before pickling a store
        so worker→parent payloads carry records only.
        """
        self._index = None

    def __getstate__(self) -> dict:
        """Pickle records and versions only — never the materialised index.

        Large tables go columnar (see :func:`_pack_rows`): one tuple of
        primitive columns per table instead of tens of thousands of
        record objects.
        """
        state = self.__dict__.copy()
        state["_index"] = None
        for table in TABLES:
            rows = state[table]
            # Spilled tables carry their own chunk-reference pickling.
            if isinstance(rows, list):
                state[table] = _pack_rows(rows)
        return state

    def __setstate__(self, state: dict) -> None:
        state.setdefault("spill", None)
        for table in TABLES:
            state[table] = _unpack_rows(state[table])
        self.__dict__.update(state)

    # -- correlation indices --------------------------------------------

    def outcome_of(
        self, company_id: str, challenge_id: int
    ) -> Optional[ChallengeOutcomeRecord]:
        """Delivery outcome of a challenge, or None while still in flight."""
        return self.index().outcome_of(company_id, challenge_id)

    def web_events_of(
        self, company_id: str, challenge_id: int
    ) -> list[WebAccessRecord]:
        return self.index().web_events_of(company_id, challenge_id)

    def company_ids(self) -> list[str]:
        """All companies that appear in the MTA logs, in first-seen order."""
        return self.index().company_ids()

    def summary_counts(self) -> dict[str, int]:
        """Record counts per log type (debugging / sanity checks)."""
        return {table: len(getattr(self, table)) for table in TABLES}

    # -- spill management -------------------------------------------------

    def flush(self) -> None:
        """Spill every table's live tail (no-op for in-memory stores)."""
        if self.spill is None:
            return
        for table in TABLES:
            getattr(self, table).flush()

    def live_rows(self) -> int:
        """Records currently resident in memory (tails for spilled
        stores, everything for in-memory ones)."""
        total = 0
        for table in TABLES:
            rows = getattr(self, table)
            total += len(rows.tail) if isinstance(rows, SpillTable) else len(rows)
        return total

    def live_bytes_estimate(self) -> int:
        """Approximate resident bytes of the in-memory records.

        Per-table: shallow object size of one sample record times the
        live row count (slotted records are homogeneous, so one sample is
        representative). An estimate — pointers into shared strings are
        counted once per record — but it tracks growth faithfully, which
        is what the flat-memory claim needs measured.
        """
        total = 0
        for table in TABLES:
            rows = getattr(self, table)
            live = rows.tail if isinstance(rows, SpillTable) else rows
            if live:
                total += (sys.getsizeof(live[0]) + 64) * len(live)
        return total

    def spilled_bytes(self) -> int:
        """Bytes written to spill chunk files so far (0 when in-memory)."""
        if self.spill is None:
            return 0
        return sum(getattr(self, table).bytes_spilled for table in TABLES)
