"""The base of the package's immutable value classes.

A subclass names its fields in ``__slots__``, in order, and that is its
whole definition: `Frozen` binds the slots' own setters once per class, as
``cls._setters``, and its constructor stores the fields by position through
them.  A class that validates, derives or defaults a field first keeps its
own ``__init__`` and ends it with ``super().__init__(...)``; a hot one
writes through module-level names unpacked from ``_setters``
(``_set_lo, _set_hi, ... = Interval._setters``), which
tests/test_slot_setters.py keeps to the object being built.  Equality,
hashing, ``repr`` and pickling read the fields; no attribute can be assigned
or deleted afterwards.

A slot whose name starts with ``_`` is not a field: the constructor and
unpickling store ``None`` in it, and equality, hashing, ``repr`` and
pickling ignore it.  Two such slots keep what a value would otherwise
recompute, and each has one writer besides ``__init__``:
``Interval._text``, the text a piece of `parse_set`'s scan was read from,
stored by `intervals._mk_interval` (the builder that bypasses
``__init__``), and ``Extension._filters``, stored by the
``Extension.filters`` getter on first read; ``Extension.filter_at`` reads
that slot, or builds the one filter it is asked for without storing it.
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    """Built from its fields in ``__slots__`` order, equal when of the same
    class with equal fields, hashed by the fields, shown as
    ``Name(field=value, ...)``, and immutable."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        names = cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._setters = tuple(getattr(cls, name).__set__ for name in names)
        cls._blanks = tuple(getattr(cls, name).__set__ for name in cls.__slots__ if name[0] == "_")
        # One C-level getter per class: equality runs in every set comparison.
        fields = attrgetter(*names) if names else (lambda obj: ())

        def __eq__(self, other: object) -> bool:
            if other.__class__ is self.__class__:
                return fields(self) == fields(other)
            return NotImplemented

        def __hash__(self) -> int:
            return hash(fields(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __init__(self, *fields: object, **named: object) -> None:
        setters = self._setters
        if len(fields) != len(setters) or named:
            n = len(setters)
            got = f" by position, got keyword {', '.join(named)}" if named else f", {len(fields)} given"
            raise TypeError(
                f"{type(self).__qualname__}({', '.join(self._fields)}) takes "
                f"{n} field{'' if n == 1 else 's'}{got}"
            )
        for set_field, value in zip(setters, fields):
            set_field(self, value)
        for set_blank in self._blanks:
            set_blank(self, None)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setstate__(self, state: tuple) -> None:
        Frozen.__init__(self, *state)
