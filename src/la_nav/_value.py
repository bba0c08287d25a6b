"""Base class of the immutable value types: equality, hash, repr, pickling and ``replace``.

A subclass names its fields, in ``__init__`` order, in ``_fields`` and its
storage in ``__slots__``. Its ``__init__`` checks and normalises the values
and stores each one with ``_set(self, name, value)``.
"""

_set = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

    def replace(self, **changes):
        """A copy with ``changes`` applied; ``__init__`` checks the new values again."""
        for name in self._fields:
            if name not in changes:
                changes[name] = getattr(self, name)
        return self.__class__(**changes)

    __replace__ = replace
