"""Field-wise equality, hashing and repr for the package's value classes.

A value class lists the attributes that make up its value in ``_fields``
and writes its own ``__init__``.  ``Value`` then compares two instances of
the same class field by field, hashes the same fields, and prints them as
``Name(field=value, ...)``.  Attributes not in ``_fields`` (caches,
callables that carry no value of their own) take part in none of these.
A class whose instances are changed after construction sets
``__hash__ = None``.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Value"]


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # attrgetter is not a descriptor, so cls._key(self) reads the fields
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
