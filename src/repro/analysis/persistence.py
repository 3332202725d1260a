"""Save/load the measurement database as JSON-lines.

The paper stored its extracted log records in Postgres and analysed them
later; this module provides the equivalent decoupling — simulate once,
persist the :class:`~repro.analysis.store.LogStore` (plus the deployment
metadata), and re-run any analysis offline::

    python -m repro run --preset bench --save run.jsonl
    python -m repro experiment fig4a --load run.jsonl

Format: one JSON object per line; the first line is a header carrying the
schema version and the :class:`~repro.analysis.context.DeploymentInfo`;
every other line is one record tagged with its log type. Tables, tags
and their order come from :data:`repro.analysis.store.SCHEMA`; a
record's short keys from :data:`_KEYS`, one per dataclass field.
"""

from __future__ import annotations

import collections.abc
import enum
import json
import typing
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from typing import Optional

from repro.analysis.context import DeploymentInfo
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
from repro.analysis.store import SCHEMA, LogStore
from repro.blacklistd.monitor import ProbeObservation

SCHEMA_VERSION = 1


class PersistenceError(ValueError):
    """Raised on malformed or incompatible log files."""


@dataclass(frozen=True)
class LoadedRun:
    """A persisted run, sufficient for every analysis (store + info)."""

    store: LogStore
    info: DeploymentInfo


#: Each record type's short JSON keys, one per dataclass field, in field
#: order (which is also the key order of a written line).
_KEYS = {
    MtaRecord: ("c", "t", "m", "d", "o", "s"),
    DispatchRecord: (
        "c", "t", "m", "u", "cat", "fd", "ch", "cc", "f", "subj", "s",
        "spf", "k", "sc", "camp", "o", "p",
    ),
    ChallengeRecord: ("c", "id", "t", "u", "snd", "ip", "s"),
    ChallengeOutcomeRecord: ("c", "id", "st", "br", "a", "t"),
    WebAccessRecord: ("c", "id", "t", "a", "ok"),
    ReleaseRecord: ("c", "u", "m", "ta", "tr", "mech", "k"),
    WhitelistChangeRecord: ("c", "u", "a", "t", "src"),
    DigestRecord: ("c", "u", "d", "n"),
    ExpiryRecord: ("c", "u", "m", "t"),
    OutboundMailRecord: ("c", "t", "u", "r", "s"),
    ProbeObservation: ("t", "ip", "svc", "l"),
    CrashRecord: ("c", "t", "comp", "dt", "rd", "lo", "jok"),
}


#: The decoded JSON types each plain annotation accepts: exact types, so
#: ``true`` is no ``int``; an integral float (``0``) decodes as an int.
_JSON_TYPES = {
    str: frozenset({str}),
    int: frozenset({int}),
    float: frozenset({int, float}),
    bool: frozenset({bool}),
    type(None): frozenset({type(None)}),
}


def _json_types(hint) -> frozenset:
    """The exact types of a decoded JSON value that fits *hint*, for a
    plain or ``Optional`` plain annotation."""
    if typing.get_origin(hint) is typing.Union:
        return frozenset().union(*map(_json_types, typing.get_args(hint)))
    return _JSON_TYPES[hint]


def _type_error(name: str, hint, value) -> Optional[str]:
    """Why a decoded JSON *value* does not fit the annotation *hint*, or
    ``None``; a mapping annotation checks its keys and values too."""
    origin = typing.get_origin(hint)
    if isinstance(origin, type) and issubclass(origin, collections.abc.Mapping):
        key_hint, value_hint = typing.get_args(hint)
        if isinstance(value, dict) and all(
            type(k) in _json_types(key_hint)
            and type(v) in _json_types(value_hint)
            for k, v in value.items()
        ):
            return None
    elif type(value) in _json_types(hint):
        return None
    expected = getattr(hint, "__name__", None) or str(hint)
    return f"{name}: expected {expected}, got {json.dumps(value)[:40]}"


def _enum_field(hint) -> Optional[tuple]:
    """``(enum class, optional)`` for an enum-typed annotation, else None."""
    optional = typing.get_origin(hint) is typing.Union
    if optional:
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint, optional
    return None


class _Codec:
    """One table's JSONL codec, derived from its record class's fields.

    Enums travel as their ``.value`` and ``None`` as ``null``; the
    decoder rebuilds enums from the field annotations, and only an
    ``Optional`` enum field accepts ``null`` back.
    """

    def __init__(self, table: str, tag: str, cls: type) -> None:
        names = [f.name for f in fields(cls)]
        self.keys = _KEYS[cls]
        if len(self.keys) != len(names):
            raise TypeError(f"{cls.__name__}: {len(names)} fields, "
                            f"{len(self.keys)} JSON keys")
        self.table = table
        self.tag = tag
        self.cls = cls
        self._values = attrgetter(*names)
        hints = typing.get_type_hints(cls)
        #: ``(short key, enum class, optional)`` per enum-typed field.
        self._enums = tuple(
            (key, *spec)
            for key, name in zip(self.keys, names)
            if (spec := _enum_field(hints[name])) is not None
        )
        enum_keys = {key for key, _cls, _optional in self._enums}
        #: ``(short key, accepted types, annotation)`` per other field.
        self._plain = tuple(
            (key, _json_types(hints[name]), hints[name])
            for key, name in zip(self.keys, names)
            if key not in enum_keys
        )

    def encode(self, record) -> dict:
        payload = dict(zip(self.keys, self._values(record)))
        for key, _cls, _optional in self._enums:
            member = payload[key]
            if member is not None:
                # ``_value_`` is what the ``.value`` property returns,
                # without the property call (the digest encodes every
                # record of a run).
                payload[key] = member._value_
        return payload

    def decode(self, payload: dict):
        values = {key: payload[key] for key in self.keys}
        for key, types, hint in self._plain:
            if type(values[key]) not in types:
                raise ValueError(_type_error(key, hint, values[key]))
        for key, enum_cls, optional in self._enums:
            if values[key] is not None or not optional:
                values[key] = enum_cls(values[key])
        return self.cls(*values.values())


#: One codec per table, in schema (= digest) order.
_TABLE_CODECS = tuple(_Codec(*entry) for entry in SCHEMA)
_BY_TAG = {codec.tag: codec for codec in _TABLE_CODECS}


def encoded_records(store: LogStore):
    """Yield every record as ``(tag, payload_dict)`` in schema order.

    The payloads are the exact JSON-ready dicts :func:`save_run` writes,
    which makes this the canonical byte-stable serialisation of a store —
    the parallel runner hashes it to fingerprint a run's content.
    """
    for codec in _TABLE_CODECS:
        encode = codec.encode
        for record in getattr(store, codec.table):
            yield codec.tag, encode(record)


def save_run(store: LogStore, info: DeploymentInfo, path) -> int:
    """Write the store + metadata to *path*; returns records written."""
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        header = {
            "type": "header",
            "schema": SCHEMA_VERSION,
            "info": asdict(info),
        }
        handle.write(json.dumps(header) + "\n")
        for tag, payload in encoded_records(store):
            payload["type"] = tag
            handle.write(json.dumps(payload) + "\n")
            written += 1
    return written


def load_run(path) -> LoadedRun:
    """Read a file written by :func:`save_run`.

    Every malformed line raises :class:`PersistenceError` naming the
    path and line number.
    """
    store = LogStore()
    info: Optional[DeploymentInfo] = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{line_number}"
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise PersistenceError(
                    f"{where}: invalid JSON: {exc}"
                ) from exc
            if not isinstance(payload, dict):
                raise PersistenceError(
                    f"{where}: expected a JSON object, got "
                    f"{type(payload).__name__}"
                )
            tag = payload.get("type")
            if tag == "header":
                if payload.get("schema") != SCHEMA_VERSION:
                    raise PersistenceError(
                        f"{where}: unsupported schema "
                        f"{payload.get('schema')!r}"
                    )
                info = _decode_info(payload.get("info"), where)
                continue
            codec = _BY_TAG.get(tag) if isinstance(tag, str) else None
            if codec is None:
                raise PersistenceError(f"{where}: unknown record type {tag!r}")
            try:
                getattr(store, codec.table).append(codec.decode(payload))
            except (KeyError, ValueError) as exc:
                raise PersistenceError(
                    f"{where}: bad {tag} record: {exc}"
                ) from exc
    if info is None:
        raise PersistenceError(f"{path}: missing header line")
    return LoadedRun(store=store, info=info)


def _decode_info(raw, where: str) -> DeploymentInfo:
    """The header's :class:`DeploymentInfo`, every field present and of
    its annotated type."""
    if not isinstance(raw, dict):
        raise PersistenceError(f"{where}: bad header info: {raw!r}")
    hints = typing.get_type_hints(DeploymentInfo)
    values = {}
    for field in fields(DeploymentInfo):
        if field.name not in raw:
            raise PersistenceError(
                f"{where}: bad header info: missing {field.name!r}"
            )
        value = raw[field.name]
        problem = _type_error(field.name, hints[field.name], value)
        if problem is not None:
            raise PersistenceError(f"{where}: bad header info: {problem}")
        values[field.name] = value
    return DeploymentInfo(**values)
