"""The store's column tables (DESIGN.md §2): every value comes back
exactly as it went in, type included, through every way of reading a
table, pickling it or spilling it."""

from __future__ import annotations

import enum
import os
import pickle
import tempfile
import typing
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import store as store_module
from repro.analysis.persistence import _TABLE_CODECS, encoded_records
from repro.analysis.records import MtaRecord
from repro.analysis.store import (
    SCHEMA,
    ColumnTable,
    LogStore,
    SpillTable,
)
from repro.core.mta_in import DropReason

_INT64 = st.integers(-(2 ** 63), 2 ** 63 - 1)


def _values(hint) -> st.SearchStrategy:
    """Values for a field annotated *hint*: every kind its column must
    hold, plus values of a near-miss type that must demote the column."""
    if typing.get_origin(hint) is typing.Union:
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        return st.none() | _values(args[0])
    if hint is float:
        return (
            st.floats(allow_nan=False)
            | st.integers(-10 ** 6, 10 ** 6).map(float)  # int-valued
            | st.integers(-5, 5)  # an int in a float column
        )
    if hint is bool:
        return st.booleans() | st.sampled_from([0, 1])
    if hint is int:
        return _INT64 | st.booleans() | st.just(2 ** 70)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return st.sampled_from(list(hint))
    return st.text(max_size=5)


def _records(cls) -> st.SearchStrategy:
    hints = typing.get_type_hints(cls)
    return st.lists(
        st.builds(cls, *(_values(hints[f.name]) for f in fields(cls))),
        max_size=14,
    )


def _exact(records) -> list:
    """Each record as its field values' types and reprs, so ``3`` and
    ``3.0``, ``1`` and ``True``, and ``0.0`` and ``-0.0`` differ."""
    return [
        tuple(
            (type(v), repr(v))
            for v in (getattr(r, f.name) for f in fields(r))
        )
        for r in records
    ]


@pytest.mark.parametrize("table,tag,cls", SCHEMA, ids=[s[0] for s in SCHEMA])
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_read_returns_the_appended_records(table, tag, cls, data):
    records = data.draw(_records(cls))
    # Batches of three rows, so demotion also happens after a batch of
    # rows that fit has already gone into a typed column.
    with mock.patch.object(store_module, "_BATCH_ROWS", 3):
        columns = ColumnTable(cls)
        half = len(records) // 2
        for record in records[:half]:
            columns.append(record)
        # A read part-way settles the staged rows; appends then go on.
        assert _exact(columns) == _exact(records[:half])
        for record in records[half:]:
            columns.append_values(
                tuple(getattr(record, f.name) for f in fields(cls))
            )

        expected = _exact(records)
        assert len(columns) == len(records)
        assert _exact(columns) == expected
        assert columns == records
        for i in range(-len(records), len(records)):
            assert _exact([columns[i]]) == [expected[i]]
        start = data.draw(st.integers(-3, len(records) + 1))
        stop = data.draw(st.integers(-3, len(records) + 1))
        assert _exact(columns[start:stop]) == expected[start:stop]
        assert _exact(columns[::-2]) == expected[::-2]
        assert _exact(pickle.loads(pickle.dumps(columns))) == expected

        with tempfile.TemporaryDirectory() as directory:
            spilled = SpillTable(os.path.join(directory, "t.chunks"), cls, 4)
            for record in records:
                spilled.append(record)
            assert len(spilled) == len(records)
            assert _exact(spilled) == expected
            assert _exact(spilled.gather()) == expected
            assert _exact(pickle.loads(pickle.dumps(spilled))) == expected
            if records:
                assert _exact([spilled[-1]]) == expected[-1:]

    logs = LogStore()
    setattr(logs, table, columns)
    codec = next(c for c in _TABLE_CODECS if c.table == table)
    names = [f.name for f in fields(cls)]
    assert list(encoded_records(logs)) == [
        (tag, codec.encode(tuple(getattr(r, n) for n in names)))
        for r in records
    ]


def test_a_misfit_demotes_only_its_own_column():
    table = ColumnTable(MtaRecord)
    table.append(MtaRecord("c", 1.0, 1, None, False, 2))
    table.append(MtaRecord("c", 2, 2, None, False, 3))  # int time
    assert [type(r.t) for r in table] == [float, int]
    kinds = [type(column).__name__ for column in table._columns]
    assert kinds == ["list", "list", "array", "bytearray", "bytearray",
                     "array"]


def test_a_short_row_is_refused():
    table = ColumnTable(MtaRecord)
    table.append_values(("c", 1.0, 1, None, False))
    with pytest.raises(ValueError, match="6 values"):
        len(list(table))


def test_live_bytes_counts_an_mta_row_at_no_more_than_40_bytes():
    logs = LogStore()
    for msg_id in range(5000):
        logs.add_row("mta", "c07", msg_id * 1.5, msg_id,
                     DropReason.MALFORMED if msg_id % 7 else None,
                     msg_id % 3 == 0, 4096 + msg_id)
    assert logs.live_rows() == 5000
    assert logs.live_bytes() <= 40 * 5000
