"""Plain record classes for the library's small value types.

A record names its fields in `__slots__`, in constructor order; equality
and repr run over them. A `Frozen` record sets them once, through
`Frozen.__init__`, is hashable, and refuses assignment and deletion with
AttributeError. `dataclasses` would generate the same methods, but
importing it (with `inspect`, `ast`, `dis` and `tokenize`) costs about as
much as the rest of the command line's start-up.
"""

from __future__ import annotations


class Record:
    """Equality and repr over the fields named in `__slots__`."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """An immutable, hashable record: `Frozen.__init__` takes the field
    values in `__slots__` order, and nothing may assign them after."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
