"""Immutable value types, without ``dataclasses``.

A subclass names its fields in ``__match_args__``, declares them as
``__slots__`` and writes a plain ``__init__`` taking the fields in that
order, setting each with :func:`set_field` and then checking any
invariant of the type, so every value that exists is valid.  The base
gives it equality and hashing over the tuple of fields, equal only for
the same type, a ``Name(field=value, ...)`` repr, pickling, and a
``__setattr__`` and ``__delattr__`` that raise ``AttributeError``.  No
code is generated at import, which keeps the import of ``spincalc``
short.
"""

from __future__ import annotations

# set_field(value, name, x) sets a field in ``__init__``, past the frozen __setattr__
set_field = object.__setattr__


class Value:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self.__match_args__:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ""
        for name in self.__match_args__:
            fields += f", {name}={getattr(self, name)!r}"
        return f"{self.__class__.__qualname__}({fields[2:]})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()
