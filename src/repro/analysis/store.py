"""The aggregation store — our stand-in for the paper's Postgres database.

A :class:`LogStore` holds every log record the simulated deployment emits,
in insertion (= time) order, plus a shared, lazily-materialised
:class:`~repro.analysis.index.AnalysisIndex` over them. It is append-only
during a run; analyses treat it as read-only.

Every table is a :class:`ColumnTable`: one typed column per record field,
laid out from the record class's annotations, so a row costs its data (34
bytes for an MTA-IN row) instead of an object per row plus one per
number. Tables still hand out record objects, built when a caller
iterates or indexes them; the index's hot sweeps read the columns.

Every append helper bumps its table's version counter, so aggregates the
index built over that table are invalidated precisely — an append to
``releases`` never throws away the expensive MTA pass, and a stale
aggregate is never served after any append.
"""

from __future__ import annotations

import enum
import os
import pickle
import struct
import typing
from array import array
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from itertools import islice
from operator import attrgetter
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

#: Names of the table attributes, in schema order.
TABLES = tuple(table for table, _tag, _cls in SCHEMA)


#: Bytes one list-column slot takes: a pointer to the value's object.
_POINTER_BYTES = struct.calcsize("P")

#: Rows a table stages before it transposes them into its columns in one
#: batch of C-speed sweeps.
_BATCH_ROWS = 1024

_BOOLS = (False, True)


def enum_field(hint) -> Optional[tuple]:
    """``(enum class, optional)`` for an enum-typed annotation, else None."""
    optional = typing.get_origin(hint) is typing.Union
    if optional:
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint, optional
    return None


def _exactly(kind: type, convert=None):
    """An encoder for a column of *kind*: a batch of values, through
    *convert*, if every one is exactly a *kind*; else ``TypeError``."""
    accepted = frozenset((kind,))

    def encode(values: tuple):
        if not accepted.issuperset(map(type, values)):
            raise TypeError(f"not every value is a {kind.__name__}")
        return values if convert is None else convert(values)

    return encode


def _coded(members: tuple):
    """An encoder for a code column: each value's index in *members*,
    looked up by ``id`` (members and ``None`` are singletons, and
    ``Enum.__hash__`` is a Python-level call); ``KeyError`` for any
    other value."""
    codes = {id(member): code for code, member in enumerate(members)}
    code_of = codes.__getitem__

    def encode(values: tuple) -> bytes:
        return bytes(map(code_of, map(id, values)))

    return encode


class _Layout:
    """One record class's column plan, read once from its annotations.

    Per field, in declaration order: the empty column, the encoder that
    turns a batch of values into what the column extends by (``None``
    for a plain list, which holds anything as it is), and the members a
    code column's bytes index (``None`` for an uncoded column).
    """

    def __init__(self, cls: type) -> None:
        self.names = tuple(f.name for f in fields(cls))
        #: record -> the tuple of its field values.
        self.values = attrgetter(*self.names)
        hints = typing.get_type_hints(cls)
        self.factories, self.encoders, self.members = [], [], []
        for name in self.names:
            hint = hints[name]
            factory, encoder, members = list, None, None
            if hint is float:
                factory = partial(array, "d")
                encoder = _exactly(float, factory)
            elif hint is int:
                factory = partial(array, "q")
                encoder = _exactly(int, factory)
            elif hint is bool:
                factory, encoder, members = bytearray, _exactly(bool), _BOOLS
            elif (spec := enum_field(hint)) is not None:
                enum_cls, optional = spec
                members = tuple(enum_cls) + ((None,) if optional else ())
                factory, encoder = bytearray, _coded(members)
            self.factories.append(factory)
            self.encoders.append(encoder)
            self.members.append(members)


@lru_cache(maxsize=None)
def _layout(cls: type) -> _Layout:
    return _Layout(cls)


class ColumnTable:
    """An append-only table of one record class, stored column by column.

    Each field's column kind comes from the class's annotation: ``float``
    is an ``array('d')``, ``int`` an ``array('q')``, ``bool`` a byte
    array, an enum or ``Optional`` enum one-byte member codes, anything
    else a plain list. Values come back exactly, type included: a value
    its typed column cannot hold as itself (an ``int`` in a ``float``
    column, a ``bool`` in an ``int`` one, an integer past 64 bits)
    demotes that column, in this table only, to a plain list.

    Records go in through :meth:`append`, or as their field values
    through :meth:`append_values`, which builds no record. They come out
    as new record objects through iteration, indexing, slicing and
    :meth:`take`; :meth:`column` and :meth:`values` read without building
    any. Appended rows are staged and transposed into the columns
    :data:`_BATCH_ROWS` at a time. A table pickles as its columns.
    """

    __slots__ = ("cls", "_layout", "_columns", "_staged")

    def __init__(self, cls: type, columns=None) -> None:
        self.cls = cls
        self._layout = layout = _layout(cls)
        if columns is None:
            columns = [factory() for factory in layout.factories]
        elif len(columns) != len(layout.names):
            raise ValueError(
                f"{cls.__name__} has {len(layout.names)} fields, "
                f"got {len(columns)} columns"
            )
        self._columns = list(columns)
        self._staged: list = []

    # -- appends ------------------------------------------------------------

    def append(self, record) -> None:
        self.append_values(self._layout.values(record))

    def append_values(self, values: tuple) -> None:
        """Append one row given as its field values, in field order."""
        staged = self._staged
        staged.append(values)
        if len(staged) >= _BATCH_ROWS:
            self._settle()

    def extend(self, other: "ColumnTable") -> None:
        """Append every row of *other*, a table of the same record class,
        column by column."""
        self._settle()
        other._settle()
        columns = self._columns
        for i, theirs in enumerate(other._columns):
            if type(columns[i]) is type(theirs):
                columns[i].extend(theirs)
            else:
                if type(columns[i]) is not list:
                    columns[i] = list(self._decoded(i))
                columns[i].extend(other._decoded(i))

    def _settle(self) -> None:
        """Transpose the staged rows into the columns."""
        staged = self._staged
        if not staged:
            return
        layout = self._layout
        if set(map(len, staged)) != {len(layout.names)}:
            raise ValueError(
                f"a {self.cls.__name__} row has {len(layout.names)} values"
            )
        self._staged = []
        columns = self._columns
        for i, values in enumerate(zip(*staged)):
            column = columns[i]
            if type(column) is not list:
                try:
                    column.extend(layout.encoders[i](values))
                    continue
                except (TypeError, KeyError, OverflowError):
                    # A value this column cannot hold as itself; the
                    # encoder raised before the column changed.
                    column = columns[i] = list(self._decoded(i))
            column.extend(values)

    # -- reads --------------------------------------------------------------

    def _decoded(self, i: int):
        """Column *i*'s values as the records hold them."""
        column = self._columns[i]
        members = self._layout.members[i]
        if members is None or type(column) is list:
            return column
        return map(members.__getitem__, column)

    def __len__(self) -> int:
        return len(self._columns[0]) + len(self._staged)

    def column(self, name: str):
        """Field *name*'s values in row order: the typed array or list
        itself, or an iterator decoding a code column."""
        self._settle()
        return self._decoded(self._layout.names.index(name))

    def values(self) -> Iterator[tuple]:
        """Each row as the tuple of its field values, in field order."""
        self._settle()
        return zip(*map(self._decoded, range(len(self._columns))))

    def __iter__(self):
        self._settle()
        return map(self.cls, *map(self._decoded, range(len(self._columns))))

    def chunks(self) -> Iterator["ColumnTable"]:
        """The table as its one chunk (a :class:`SpillTable` has many)."""
        yield self

    def take(self, indices) -> list:
        """The records at row numbers *indices*, in that order."""
        self._settle()
        indices = list(indices)
        picked = []
        for column, members in zip(self._columns, self._layout.members):
            values = map(column.__getitem__, indices)
            if members is not None and type(column) is not list:
                values = map(members.__getitem__, values)
            picked.append(values)
        return list(map(self.cls, *picked))

    def __getitem__(self, index):
        rows = range(len(self))[index]
        if isinstance(index, slice):
            return self.take(rows)
        return self.take((rows,))[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, ColumnTable, SpillTable)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    def nbytes(self) -> int:
        """Bytes the column buffers hold: item size times length for a
        typed column, one pointer per row for a list column."""
        self._settle()
        return sum(
            len(column) * (
                _POINTER_BYTES if type(column) is list
                else getattr(column, "itemsize", 1)
            )
            for column in self._columns
        )

    def __reduce__(self):
        self._settle()
        return (ColumnTable, (self.cls, tuple(self._columns)))


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

    Rows accumulate in ``tail``, a :class:`ColumnTable`; once it holds
    ``chunk_rows`` rows it is pickled — as its columns — and appended as
    one framed chunk to this table's chunk file. Iteration replays
    spilled chunks from disk in order, one chunk in memory at a time,
    then the live tail — so full-table consumers see exactly the rows an
    in-memory table would hold, while resident memory is bounded by one
    chunk.

    The chunk file is strictly append-only: a checkpoint snapshot carries
    the chunk offsets valid at snapshot time, and a run resumed from it
    simply appends new chunks after the file's current end. Bytes written
    between the snapshot and the crash are never referenced again — dead
    weight on disk, invisible to iteration, so resume stays byte-identical
    without any truncation dance.
    """

    __slots__ = ("path", "chunk_rows", "tail", "_chunks", "_spilled_rows",
                 "bytes_spilled")

    def __init__(
        self, path: str, cls: type, chunk_rows: int = SPILL_CHUNK_ROWS
    ) -> None:
        self.path = path
        self.chunk_rows = chunk_rows
        self.tail = ColumnTable(cls)
        #: (byte offset, row count) per spilled chunk, in append order.
        self._chunks: list = []
        self._spilled_rows = 0
        self.bytes_spilled = 0

    def append(self, record) -> None:
        self.tail.append(record)
        if len(self.tail) >= self.chunk_rows:
            self.flush()

    def append_values(self, values: tuple) -> None:
        self.tail.append_values(values)
        if len(self.tail) >= self.chunk_rows:
            self.flush()

    def flush(self) -> None:
        """Spill the tail as one framed chunk."""
        tail = self.tail
        if not len(tail):
            return
        payload = pickle.dumps(tail, protocol=pickle.HIGHEST_PROTOCOL)
        with open(self.path, "ab") as handle:
            offset = handle.tell()
            handle.write(struct.pack("<Q", len(payload)))
            handle.write(payload)
        self._chunks.append((offset, len(tail)))
        self._spilled_rows += len(tail)
        self.bytes_spilled += len(payload) + 8
        self.tail = ColumnTable(tail.cls)

    def _load_chunk(self, offset: int) -> ColumnTable:
        with open(self.path, "rb") as handle:
            handle.seek(offset)
            (size,) = struct.unpack("<Q", handle.read(8))
            return pickle.loads(handle.read(size))

    def chunks(self) -> Iterator[ColumnTable]:
        """Yield the table as successive column tables, in row order."""
        for offset, _rows in self._chunks:
            yield self._load_chunk(offset)
        if len(self.tail):
            yield self.tail

    def values(self) -> Iterator[tuple]:
        for chunk in self.chunks():
            yield from chunk.values()

    def __iter__(self):
        for chunk in self.chunks():
            yield from chunk

    def __len__(self) -> int:
        return self._spilled_rows + len(self.tail)

    def __getitem__(self, index):
        # Convenience for tests and small tables; O(chunks) on cold data.
        if isinstance(index, slice):
            return _stream_slice(self, index)
        index = range(len(self))[index]
        seen = 0
        for offset, rows in self._chunks:
            if index < seen + rows:
                return self._load_chunk(offset)[index - seen]
            seen += rows
        return self.tail[index - seen]

    def gather(self) -> ColumnTable:
        """The whole table as one in-memory :class:`ColumnTable`, built by
        copying each chunk's columns."""
        table = ColumnTable(self.tail.cls)
        for chunk in self.chunks():
            table.extend(chunk)
        return table

    def __getstate__(self) -> dict:
        # Ship chunk *references* plus the tail: a worker handing its
        # store to the parent moves O(tail) bytes, not O(history) — the
        # spilled chunks stay where they are on shared disk.
        return {
            "path": self.path,
            "chunk_rows": self.chunk_rows,
            "tail": self.tail,
            "chunks": self._chunks,
            "spilled_rows": self._spilled_rows,
            "bytes_spilled": self.bytes_spilled,
        }

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        self.chunk_rows = state["chunk_rows"]
        self.tail = state["tail"]
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
    start, stop, step = index.indices(len(table))
    if step == 1:
        return list(islice(iter(table), start, stop))
    return list(table)[index]


class LogStore:
    """Typed, append-only collection of all measurement logs.

    Each table is a :class:`ColumnTable`; with a :class:`SpillConfig` it
    is a :class:`SpillTable` instead, streaming history to chunk files
    under ``spill.directory`` and keeping resident memory bounded by the
    live tails.
    """

    def __init__(self, spill: Optional[SpillConfig] = None) -> None:
        self.spill = spill
        if spill is not None:
            os.makedirs(spill.directory, exist_ok=True)
        for table, _tag, cls in SCHEMA:
            setattr(
                self,
                table,
                ColumnTable(cls) if spill is None else SpillTable(
                    os.path.join(spill.directory, f"{table}.chunks"),
                    cls,
                    spill.chunk_rows,
                ),
            )
        self._versions: dict[str, int] = {table: 0 for table in TABLES}
        self._index: Optional[AnalysisIndex] = None

    # -- append helpers (every one invalidates its table's aggregates) ---

    def add_row(self, table: str, *values) -> None:
        """Append one row to *table* as its record's field values, in
        field order, without building the record (the hot call sites)."""
        getattr(self, table).append_values(values)
        self._versions[table] += 1

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

        It is a pure cache over the tables, so dropping it never loses
        data; the parallel runner calls this before pickling a store so
        worker→parent payloads carry records only.
        """
        self._index = None

    def __getstate__(self) -> dict:
        """Pickle the tables (each as its columns) and versions — never
        the materialised index."""
        state = self.__dict__.copy()
        state["_index"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        for table in TABLES:
            if not isinstance(state.get(table), (ColumnTable, SpillTable)):
                raise ValueError(
                    f"store table {table!r} is not a column table: a "
                    "pickle from an older layout"
                )
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

    def gather(self) -> None:
        """Pull every spilled table back into memory, column by column;
        the store is then an in-memory one that no longer reads its chunk
        files."""
        if self.spill is None:
            return
        for table in TABLES:
            setattr(self, table, getattr(self, table).gather())
        self.spill = None

    def _live_tables(self) -> Iterator[ColumnTable]:
        """The in-memory part of each table: the tail of a spilled one."""
        for table in TABLES:
            rows = getattr(self, table)
            yield rows.tail if isinstance(rows, SpillTable) else rows

    def live_rows(self) -> int:
        """Records currently resident in memory (tails for spilled
        stores, everything for in-memory ones)."""
        return sum(map(len, self._live_tables()))

    def live_bytes(self) -> int:
        """Bytes the resident tables' column buffers hold (see
        :meth:`ColumnTable.nbytes`); the strings and other objects that
        list columns point to are shared and not counted."""
        return sum(table.nbytes() for table in self._live_tables())

    def spilled_bytes(self) -> int:
        """Bytes written to spill chunk files so far (0 when in-memory)."""
        if self.spill is None:
            return 0
        return sum(getattr(self, table).bytes_spilled for table in TABLES)
