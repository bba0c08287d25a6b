"""Base class of the immutable value types: equality, hash, repr, pickling and ``replace``.

A subclass names its fields, in constructor order, in ``_fields`` and its
storage in ``__slots__``. The base ``__init__`` binds every field exactly once.
A subclass whose values need checking or normalising checks them in its own
``__init__`` and passes them to ``Value.__init__``; ``_set(self, name, value)``
is only for a derived slot that is not a field.
"""

import math

_set = object.__setattr__


def _number(value, what: str) -> float:
    """``value`` as a finite float, -0.0 as 0.0; ValueError for a bool, a non-number or a non-finite value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value) + 0.0
    except OverflowError:
        raise ValueError(f"{what} must be finite, got an integer beyond float range") from None
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return number


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        """Store each field, bound by position or by name as in a written signature."""
        values = dict(zip(self._fields, args), **kwargs)
        if len(values) != len(args) + len(kwargs) or values.keys() != set(self._fields):
            raise TypeError(
                f"{self.__class__.__qualname__} takes each of its fields "
                f"({', '.join(self._fields)}) once, by position or by name"
            )
        for name in self._fields:
            _set(self, name, values[name])

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
