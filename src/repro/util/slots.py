"""``@dataclass(slots=True)`` for interpreters that predate it (3.9).

Apply :func:`slotted` on top of a plain ``@dataclass``. It rebuilds the
class with ``__slots__`` naming its fields, the way 3.10's ``slots=True``
does, so instances carry no ``__dict__`` and field defaults keep working
(``dataclass`` has already baked them into ``__init__``).
"""

from __future__ import annotations

from dataclasses import fields


def slotted(cls: type) -> type:
    """Return *cls* rebuilt with ``__slots__`` over its dataclass fields."""
    names = tuple(f.name for f in fields(cls))
    namespace = {k: v for k, v in cls.__dict__.items()
                 if k not in names and k not in ("__dict__", "__weakref__")}
    namespace["__slots__"] = names
    rebuilt = type(cls)(cls.__name__, cls.__bases__, namespace)
    rebuilt.__qualname__ = cls.__qualname__
    return rebuilt
