"""The base of the package's immutable value classes.

A subclass names its fields in ``__slots__``, in order, and sets them in its
own ``__init__`` with ``object.__setattr__``, or, in a hot constructor, through
its slots' own bound setters (``_set_lo = Interval.lo.__set__``), which
tests/test_slot_setters.py keeps to the object being built.  Equality,
hashing and ``repr`` read the fields; no attribute can be assigned or deleted
afterwards.
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    """Equal when of the same class with equal fields, hashed by the
    fields, shown as ``Name(field=value, ...)``, and immutable."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        names = cls.__slots__
        # One C-level getter per class: equality runs in every set comparison.
        fields = attrgetter(*names) if names else (lambda obj: ())

        def __eq__(self, other: object) -> bool:
            if other.__class__ is self.__class__:
                return fields(self) == fields(other)
            return NotImplemented

        def __hash__(self) -> int:
            return hash(fields(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)
