"""Exact algebra for finite unions of intervals on the extended real line.

Finite endpoints are `fractions.Fraction`; the two infinities are float
sentinels used for ordering only, never for arithmetic, so every result is
exact.  The canonical form (sorted, disjoint, unmergeable pieces) is unique,
which turns set equality into structural comparison.

Text grammar, used by the CLI and the record formats::

    SET      := INTERVAL (" U " INTERVAL)*
    INTERVAL := ("(" | "[") EP "," EP (")" | "]")
    EP       := "-inf" | "inf" | INT | INT "/" POSINT

The canonical rendering of the empty set is the word ``empty`` (the grammar
itself has no empty production).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import MalformedInterval, NotASubset, ParseError, SizeTooLarge

NEG_INF = float("-inf")
POS_INF = float("inf")

# A point of the extended line: an exact rational, or an infinity sentinel.
Value = Fraction | float


def _coerce_value(v: object) -> Value:
    # Endpoints are stored as plain `Fraction`s or the two sentinels, which
    # is what the comparison kernel below reads them as.
    if type(v) is Fraction:
        return v
    if isinstance(v, Fraction):
        return Fraction(v)
    if isinstance(v, bool):
        raise MalformedInterval(f"not a rational endpoint: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float) and (v == NEG_INF or v == POS_INF):
        return POS_INF if v > 0 else NEG_INF
    raise MalformedInterval(f"not a rational endpoint: {v!r}")


def _lt(a: Value, b: Value) -> bool:
    """a < b on the extended line, exactly.

    Two rationals compare by integer cross-multiplication (denominators are
    positive).  An infinity takes its own branch: encoding it as a fraction
    with denominator 0 would make -inf equal to +inf.
    """
    if type(a) is Fraction:
        if type(b) is Fraction:
            return a._numerator * b._denominator < b._numerator * a._denominator
        return b > 0
    if type(b) is Fraction:
        return a < 0
    return a < b


def _eq(a: Value, b: Value) -> bool:
    """a == b on the extended line, exactly (see `_lt`)."""
    if type(a) is Fraction:
        if type(b) is Fraction:
            return a._numerator * b._denominator == b._numerator * a._denominator
        return False
    return type(b) is not Fraction and a == b


def is_finite(v: Value) -> bool:
    """True for rational values, False for the infinity sentinels."""
    return isinstance(v, Fraction)


def fmt_value(v: Value) -> str:
    if isinstance(v, float):
        return "inf" if v > 0 else "-inf"
    try:
        return str(v)
    except ValueError as exc:  # beyond the interpreter's integer-to-text digit limit
        raise SizeTooLarge("a computed number has too many digits to print") from exc


@dataclass(frozen=True, slots=True)
class Interval:
    """One nonempty interval; degenerate single points are ``[a,a]``."""

    lo: Value
    hi: Value
    lo_closed: bool = False
    hi_closed: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", _coerce_value(self.lo))
        object.__setattr__(self, "hi", _coerce_value(self.hi))
        if isinstance(self.lo, float) and self.lo == POS_INF:
            raise MalformedInterval("lower endpoint cannot be +inf")
        if isinstance(self.hi, float) and self.hi == NEG_INF:
            raise MalformedInterval("upper endpoint cannot be -inf")
        if (isinstance(self.lo, float) and self.lo_closed) or (
            isinstance(self.hi, float) and self.hi_closed
        ):
            raise MalformedInterval("infinite endpoints are never included")
        if _lt(self.hi, self.lo):
            raise MalformedInterval(
                f"empty interval: {fmt_value(self.lo)} above {fmt_value(self.hi)}"
            )
        if _eq(self.lo, self.hi) and not (self.lo_closed and self.hi_closed):
            raise MalformedInterval("degenerate interval must include both endpoints")

    @property
    def degenerate(self) -> bool:
        return _eq(self.lo, self.hi)

    def contains(self, q: Fraction) -> bool:
        if type(q) is not Fraction:
            q = Fraction(q)
        above = _lt(self.lo, q) or (self.lo_closed and _eq(q, self.lo))
        return above and (_lt(q, self.hi) or (self.hi_closed and _eq(q, self.hi)))

    def closure(self) -> Interval:
        return _mk_interval(self.lo, self.hi, is_finite(self.lo), is_finite(self.hi))

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{fmt_value(self.lo)},{fmt_value(self.hi)}{right}"


def _mk_interval(lo: Value, hi: Value, lo_closed: bool, hi_closed: bool) -> Interval:
    # Internal fast path: endpoints already coerced, invariants already known.
    iv = object.__new__(Interval)
    object.__setattr__(iv, "lo", lo)
    object.__setattr__(iv, "hi", hi)
    object.__setattr__(iv, "lo_closed", lo_closed)
    object.__setattr__(iv, "hi_closed", hi_closed)
    return iv


def _lo_key(iv: Interval) -> tuple[Value, int]:
    return (iv.lo, 0 if iv.lo_closed else 1)


def _starts_before(x: Interval, y: Interval) -> bool:
    # Strict line order of lower ends, an included end first: _lo_key(x) < _lo_key(y).
    return _lt(x.lo, y.lo) or (x.lo_closed and not y.lo_closed and _eq(x.lo, y.lo))


def _gap_between(left: Interval, right: Interval) -> bool:
    # True when the pair neither overlaps nor touches mergeably.
    if _lt(left.hi, right.lo):
        return True
    return not left.hi_closed and not right.lo_closed and _eq(left.hi, right.lo)


@dataclass(frozen=True, slots=True)
class IntervalSet:
    """Canonical finite union of disjoint, unmergeable intervals."""

    pieces: tuple[Interval, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pieces", tuple(self.pieces))
        for left, right in zip(self.pieces, self.pieces[1:]):
            if not _gap_between(left, right):
                raise MalformedInterval(f"pieces {left} and {right} break canonical form")

    def __bool__(self) -> bool:
        return bool(self.pieces)

    def __contains__(self, q: object) -> bool:
        if isinstance(q, bool) or not isinstance(q, (int, Fraction)):
            raise TypeError(f"membership is decided for rationals, not {q!r}")
        q = Fraction(q)
        return any(iv.contains(q) for iv in self.pieces)

    def __or__(self, other: IntervalSet) -> IntervalSet:
        return union(self, other)

    def __and__(self, other: IntervalSet) -> IntervalSet:
        return intersect(self, other)

    def __sub__(self, other: IntervalSet) -> IntervalSet:
        return difference(self, other)

    def issubset(self, other: IntervalSet) -> bool:
        return _hosts(self, other) is not None

    def closure(self) -> IntervalSet:
        return normalize(iv.closure() for iv in self.pieces)

    def __str__(self) -> str:
        if not self.pieces:
            return "empty"
        return " U ".join(str(p) for p in self.pieces)

    def __repr__(self) -> str:
        return f"IntervalSet[{self}]"


EMPTY = IntervalSet(())
REALS = IntervalSet((Interval(NEG_INF, POS_INF),))


def _hosts(s: IntervalSet, x: IntervalSet) -> list[Interval] | None:
    """The piece of ``x`` holding each piece of ``s``, in order, or None when
    ``s`` is not a subset of ``x``.

    A connected piece fits inside a canonical union iff it fits inside a
    single piece, so one merge sweep finds every host.
    """
    po = x.pieces
    n = len(po)
    oi = 0
    hosts = []
    for p in s.pieces:
        while oi < n and (
            _lt(po[oi].hi, p.hi) or (p.hi_closed and not po[oi].hi_closed and _eq(po[oi].hi, p.hi))
        ):
            oi += 1
        if oi == n or _starts_before(p, po[oi]):
            return None
        hosts.append(po[oi])
    return hosts


def _hosts_or_raise(s: IntervalSet, x: IntervalSet) -> list[Interval]:
    hosts = _hosts(s, x)
    if hosts is None:
        raise NotASubset(f"{s} is not a subset of {x}")
    return hosts


def _mk_set(pieces: tuple[Interval, ...]) -> IntervalSet:
    # Internal fast path for results that are canonical by construction.
    s = object.__new__(IntervalSet)
    object.__setattr__(s, "pieces", pieces)
    return s


def interval(lo, hi, lo_closed: bool = False, hi_closed: bool = False) -> Interval:
    return Interval(lo, hi, lo_closed, hi_closed)


def point(a) -> Interval:
    """The degenerate interval holding a single rational."""
    return Interval(a, a, True, True)


def only(iv: Interval) -> IntervalSet:
    """The set with exactly one piece."""
    return IntervalSet((iv,))


def normalize(intervals) -> IntervalSet:
    """Unique canonical form of a union of intervals.

    Merges overlapping and touching pieces ((0,1] with (1,2) gives (0,2)) but
    never across a missing point ((0,1) with (1,2) stays two pieces).
    Idempotent and insensitive to input order; input already in line order
    is not sorted again.
    """
    items = list(intervals)
    if any(_starts_before(y, x) for x, y in zip(items, items[1:])):
        items.sort(key=_lo_key)
    return _merge_ordered(items)


def _merge_ordered(items) -> IntervalSet:
    # Canonical form of intervals given in line order of their lower ends.
    merged: list[Interval] = []
    for iv in items:
        if merged and not _gap_between(merged[-1], iv):
            prev = merged.pop()
            if _lt(iv.hi, prev.hi) or (prev.hi_closed and _eq(prev.hi, iv.hi)):
                hi, hi_closed = prev.hi, prev.hi_closed
            else:
                hi, hi_closed = iv.hi, iv.hi_closed
            merged.append(_mk_interval(prev.lo, hi, prev.lo_closed, hi_closed))
        else:
            merged.append(iv)
    return _mk_set(tuple(merged))


def _intersect_pieces(x: Interval, y: Interval) -> Interval | None:
    if _lt(y.lo, x.lo):
        lo, lo_closed = x.lo, x.lo_closed
    elif _lt(x.lo, y.lo):
        lo, lo_closed = y.lo, y.lo_closed
    else:
        lo, lo_closed = x.lo, x.lo_closed and y.lo_closed
    if _lt(x.hi, y.hi):
        hi, hi_closed = x.hi, x.hi_closed
    elif _lt(y.hi, x.hi):
        hi, hi_closed = y.hi, y.hi_closed
    else:
        hi, hi_closed = x.hi, x.hi_closed and y.hi_closed
    if _lt(hi, lo):
        return None
    if not (lo_closed and hi_closed) and _eq(lo, hi):
        return None
    return _mk_interval(lo, hi, lo_closed, hi_closed)


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    # Both inputs are canonical, hence in line order: merge them in one pass.
    pa, pb = a.pieces, b.pieces
    if not pa:
        return b
    if not pb:
        return a
    items = []
    ai = bi = 0
    while ai < len(pa) and bi < len(pb):
        if _starts_before(pb[bi], pa[ai]):
            items.append(pb[bi])
            bi += 1
        else:
            items.append(pa[ai])
            ai += 1
    items += pa[ai:]
    items += pb[bi:]
    return _merge_ordered(items)


def intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    # Both inputs are canonical, so a single merge sweep suffices and the
    # result comes out canonical piece by piece.
    pa, pb = a.pieces, b.pieces
    if not pa or not pb:
        return EMPTY
    out = []
    ai = bi = 0
    while ai < len(pa) and bi < len(pb):
        x, y = pa[ai], pb[bi]
        r = _intersect_pieces(x, y)
        if r is not None:
            out.append(r)
        if _lt(x.hi, y.hi) or ((not x.hi_closed or y.hi_closed) and _eq(x.hi, y.hi)):
            ai += 1
        else:
            bi += 1
    return _mk_set(tuple(out))


def complement(a: IntervalSet) -> IntervalSet:
    """Complement within the whole line."""
    if not a.pieces:
        return REALS
    out: list[Interval] = []
    first, last = a.pieces[0], a.pieces[-1]
    if is_finite(first.lo):
        out.append(_mk_interval(NEG_INF, first.lo, False, not first.lo_closed))
    for left, right in zip(a.pieces, a.pieces[1:]):
        out.append(_mk_interval(left.hi, right.lo, not left.hi_closed, not right.lo_closed))
    if is_finite(last.hi):
        out.append(_mk_interval(last.hi, POS_INF, not last.hi_closed, False))
    return _mk_set(tuple(out))


def difference(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return intersect(a, complement(b))


def closure_in(s: IntervalSet, x: IntervalSet) -> IntervalSet:
    """Closure of ``s`` in the subspace ``x``: the line closure traced on x."""
    _hosts_or_raise(s, x)
    return intersect(s.closure(), x)


def not_interior_in(s: IntervalSet, x: IntervalSet) -> IntervalSet:
    """The points of ``s`` not interior in the subspace ``x``: s ∩ cl(x∖s).

    Decided per piece P of s and its host H in x: no other piece of s touches
    P, so a point of P fails to be interior exactly when H reaches past it.
    The points come out in line order, hence canonical.
    """
    out = []
    for p, h in zip(s.pieces, _hosts_or_raise(s, x)):
        if p.lo_closed and p.hi_closed and _eq(p.lo, p.hi):
            if _lt(h.lo, p.lo) or _lt(p.hi, h.hi):
                out.append(p)
            continue
        if p.lo_closed and _lt(h.lo, p.lo):
            out.append(_mk_interval(p.lo, p.lo, True, True))
        if p.hi_closed and _lt(p.hi, h.hi):
            out.append(_mk_interval(p.hi, p.hi, True, True))
    return _mk_set(tuple(out))


def interior_in(s: IntervalSet, x: IntervalSet) -> IntervalSet:
    """Interior of ``s`` in the subspace ``x``."""
    return difference(s, not_interior_in(s, x))


def is_open_in(s: IntervalSet, x: IntervalSet) -> bool:
    return not not_interior_in(s, x)


def is_closed_in(s: IntervalSet, x: IntervalSet) -> bool:
    """closure_in(s, x) == s: no excluded finite end of a piece of s lies in
    its host piece of x (no other piece of x can hold it)."""
    for p, h in zip(s.pieces, _hosts_or_raise(s, x)):
        if not p.lo_closed and (_lt(h.lo, p.lo) or (h.lo_closed and _eq(h.lo, p.lo))):
            return False
        if not p.hi_closed and (_lt(p.hi, h.hi) or (h.hi_closed and _eq(h.hi, p.hi))):
            return False
    return True


def midpoint(a: Fraction, b: Fraction) -> Fraction:
    return (a + b) / 2


def pick_point(s: IntervalSet) -> Fraction:
    """A deterministic rational inside a nonempty set."""
    if not s.pieces:
        raise ValueError("cannot pick a point from the empty set")
    iv = s.pieces[0]
    if iv.degenerate:
        return iv.lo
    if is_finite(iv.lo) and iv.lo_closed:
        return iv.lo
    if is_finite(iv.lo) and is_finite(iv.hi):
        return midpoint(iv.lo, iv.hi)
    if is_finite(iv.lo):
        return iv.lo + 1
    if is_finite(iv.hi):
        return iv.hi - 1
    return Fraction(0)


_ENDPOINT = r"-inf|inf|-?\d+(?:/\d+)?"
_INTERVAL_RE = re.compile(rf"([\[(])({_ENDPOINT}),({_ENDPOINT})([\])])\Z")
_POINT_RE = re.compile(r"-?\d+(?:/\d+)?\Z")


def _parse_endpoint(text: str) -> Value:
    if text == "inf":
        return POS_INF
    if text == "-inf":
        return NEG_INF
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ParseError(f"zero denominator in endpoint {text!r}") from exc
    except ValueError as exc:
        raise ParseError(f"endpoint too long ({len(text)} characters)") from exc


def parse_set(text: str) -> IntervalSet:
    """Parse the SET grammar (or the word ``empty``) into canonical form."""
    flat = text.strip()
    if flat == "empty":
        return EMPTY
    if not flat:
        raise ParseError("empty interval-set text")
    intervals = []
    for part in flat.split("U"):
        squeezed = "".join(part.split())
        m = _INTERVAL_RE.match(squeezed)
        if m is None:
            raise ParseError(f"bad interval syntax: {part.strip()!r}")
        lo_b, lo_t, hi_t, hi_b = m.groups()
        try:
            intervals.append(
                Interval(_parse_endpoint(lo_t), _parse_endpoint(hi_t), lo_b == "[", hi_b == "]")
            )
        except MalformedInterval as exc:
            raise ParseError(str(exc)) from exc
    return normalize(intervals)


def parse_point(text: str) -> Fraction:
    """Parse a rational in the EP grammar (infinities are not points)."""
    flat = "".join(text.split())
    if not _POINT_RE.match(flat):
        raise ParseError(f"bad rational point: {text!r}")
    try:
        return Fraction(flat)
    except ZeroDivisionError as exc:
        raise ParseError(f"zero denominator in point {text!r}") from exc
    except ValueError as exc:
        raise ParseError(f"point too long ({len(flat)} characters)") from exc
