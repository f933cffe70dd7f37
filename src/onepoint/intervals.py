"""Exact algebra for finite unions of intervals on the extended real line.

Finite endpoints are `fractions.Fraction`; the two infinities are float
sentinels used for ordering only, never for arithmetic, so every result is
exact.  Endpoints the engine computes are built from integers by `_frac`.
The canonical form (sorted, disjoint, unmergeable pieces) is unique, which
turns set equality into structural comparison.

Text grammar, used by the CLI and the record formats::

    SET      := INTERVAL (" U " INTERVAL)*
    INTERVAL := ("(" | "[") EP "," EP (")" | "]")
    EP       := "-inf" | "inf" | INT | INT "/" POSINT

The canonical rendering of the empty set is the word ``empty`` (the grammar
itself has no empty production).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cmp_to_key, reduce

from .errors import MalformedInterval, NotASubset, ParseError, SizeTooLarge
from .frozen import Frozen

NEG_INF = float("-inf")
POS_INF = float("inf")

# A point of the extended line: an exact rational, or an infinity sentinel.
Value = Fraction | float


def _coerce_value(v: object) -> Value:
    # Endpoints are stored as plain `Fraction`s or the two sentinels, which
    # is what the comparison kernel below reads them as.
    if isinstance(v, float) and (v == NEG_INF or v == POS_INF):
        return POS_INF if v > 0 else NEG_INF
    try:
        return as_point(v)
    except TypeError:
        raise MalformedInterval(f"not a rational endpoint: {v!r}") from None


def as_point(q: object) -> Fraction:
    """A point of the line as a plain `Fraction`: the one rule for every
    point argument.  Only ints and `Fraction`s are points; a plain `Fraction`
    comes back as it is."""
    if type(q) is Fraction:
        return q
    if isinstance(q, bool) or not isinstance(q, (int, Fraction)):
        raise TypeError(f"membership is decided for rationals, not {q!r}")
    return Fraction(q)


def _frac(n: int, d: int) -> Fraction:
    """The plain `Fraction` n/d in lowest terms; d must be positive.

    The one place that builds an endpoint from integers: it fills the two
    slots the kernel below reads, with no `Fraction` operator in between.
    """
    if d != 1:
        g = math.gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    f = object.__new__(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _plus(q: Fraction, n: int, d: int) -> Fraction:
    """q + n/d from integers; d must be positive."""
    qn, qd = q._numerator, q._denominator
    return _frac(qn * d + n * qd, qd * d)


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
    """``str(v)`` of a rational, read off its two integers (this runs for
    every printed endpoint, and `Fraction.__str__` is Python-level), or
    ``inf``/``-inf`` for a sentinel."""
    if type(v) is float:
        return "inf" if v > 0 else "-inf"
    n, d = v._numerator, v._denominator
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError as exc:  # beyond the interpreter's integer-to-text digit limit
        raise SizeTooLarge("a computed number has too many digits to print") from exc


class Interval(Frozen):
    """One nonempty interval; degenerate single points are ``[a,a]``.

    ``_text`` is not a field: it holds the text a piece parsed from
    canonical text was read from, which is what it prints, or None."""

    __slots__ = ("lo", "hi", "lo_closed", "hi_closed", "_text")

    def __init__(
        self, lo: Value, hi: Value, lo_closed: bool = False, hi_closed: bool = False
    ) -> None:
        lo, hi = _coerce_value(lo), _coerce_value(hi)
        lo_closed, hi_closed = bool(lo_closed), bool(hi_closed)
        fault = _interval_fault(lo, hi, lo_closed, hi_closed)
        if fault:
            raise MalformedInterval(fault)
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_lo_closed(self, lo_closed)
        _set_hi_closed(self, hi_closed)
        _set_text(self, None)

    @property
    def degenerate(self) -> bool:
        return _eq(self.lo, self.hi)

    def contains(self, q: Fraction) -> bool:
        if type(q) is not Fraction:  # runs once per piece of a set: skip the call
            q = as_point(q)
        above = _lt(self.lo, q) or (self.lo_closed and _eq(q, self.lo))
        return above and (_lt(q, self.hi) or (self.hi_closed and _eq(q, self.hi)))

    def closure(self) -> Interval:
        return _mk_interval(self.lo, self.hi, is_finite(self.lo), is_finite(self.hi))

    def __str__(self) -> str:
        if self._text is not None:
            return self._text
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{fmt_value(self.lo)},{fmt_value(self.hi)}{right}"


# The slots' own setters, bound by `Frozen` and named here: a call skips the
# generic constructor's loop.  Only constructors call them, so an Interval
# stays immutable once built.
_set_lo, _set_hi, _set_lo_closed, _set_hi_closed = Interval._setters
_set_text = Interval._text.__set__


def _interval_fault(lo: Value, hi: Value, lo_closed: bool, hi_closed: bool) -> str | None:
    """Why coerced endpoints make no interval, or None when they do."""
    # Only two finite ends can be out of order or equal: the tests on an
    # infinite end below already refuse +inf as lo and -inf as hi.
    if type(lo) is Fraction and type(hi) is Fraction:
        c = hi._numerator * lo._denominator - lo._numerator * hi._denominator
        if c < 0:
            return f"empty interval: {fmt_value(lo)} above {fmt_value(hi)}"
        if c == 0 and not (lo_closed and hi_closed):
            return "degenerate interval must include both endpoints"
        return None
    if isinstance(lo, float) and lo == POS_INF:
        return "lower endpoint cannot be +inf"
    if isinstance(hi, float) and hi == NEG_INF:
        return "upper endpoint cannot be -inf"
    if (isinstance(lo, float) and lo_closed) or (isinstance(hi, float) and hi_closed):
        return "infinite endpoints are never included"
    return None


def _mk_interval(
    lo: Value, hi: Value, lo_closed: bool, hi_closed: bool, text: str | None = None
) -> Interval:
    # Internal fast path: endpoints already coerced, invariants already known;
    # `text`, if given, is exactly what the piece prints.
    iv = object.__new__(Interval)
    _set_lo(iv, lo)
    _set_hi(iv, hi)
    _set_lo_closed(iv, lo_closed)
    _set_hi_closed(iv, hi_closed)
    _set_text(iv, text)
    return iv


def _starts_before(x: Interval, y: Interval) -> bool:
    # Strict line order of lower ends, an included end first.
    return _lt(x.lo, y.lo) or (x.lo_closed and not y.lo_closed and _eq(x.lo, y.lo))


def _gap_between(left: Interval, right: Interval) -> bool:
    # True when the pair neither overlaps nor touches mergeably.
    if _lt(left.hi, right.lo):
        return True
    return not left.hi_closed and not right.lo_closed and _eq(left.hi, right.lo)


def _ends_before(x: Interval, y: Interval) -> bool:
    # x lies wholly before y: the two share no point.
    return _lt(x.hi, y.lo) or (not (x.hi_closed and y.lo_closed) and _eq(x.hi, y.lo))


def _ends_by(x: Interval, y: Interval) -> bool:
    # Line order of upper ends, an excluded end first: x ends no later than y.
    return _lt(x.hi, y.hi) or ((not x.hi_closed or y.hi_closed) and _eq(x.hi, y.hi))


def _ends_short_of(x: Interval, y: Interval) -> bool:
    # x ends strictly before y ends: not _ends_by(y, x).
    return _lt(x.hi, y.hi) or (y.hi_closed and not x.hi_closed and _eq(x.hi, y.hi))


def _gallop(pieces, i: int, n: int, test, ref: Interval) -> int:
    """The first index from i on whose piece fails ``test(piece, ref)``, for a
    test that holds on a prefix of ``pieces[i:n]`` and fails on the rest.

    Pieces of a canonical set come in line order, so "ends before ref" and
    "ends by ref" are such tests.  The probes run i, i+1, i+3, i+7, ... and
    a binary search settles the last step: a run of r pieces costs
    O(log r) tests, and an empty run one.
    """
    if i >= n or not test(pieces[i], ref):
        return i
    lo, hi, step = i, i + 1, 1  # the test holds at lo
    while hi < n and test(pieces[hi], ref):
        lo, step = hi, step * 2
        hi = lo + step
    if hi > n:
        hi = n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if test(pieces[mid], ref):
            lo = mid
        else:
            hi = mid
    return hi


class IntervalSet(Frozen):
    """Canonical finite union of disjoint, unmergeable intervals."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: tuple[Interval, ...] = ()) -> None:
        pieces = tuple(pieces)
        for left, right in zip(pieces, pieces[1:]):
            if not _gap_between(left, right):
                raise MalformedInterval(f"pieces {left} and {right} break canonical form")
        _set_pieces(self, pieces)

    def __bool__(self) -> bool:
        return bool(self.pieces)

    def __contains__(self, q: object) -> bool:
        q = as_point(q)
        return any(iv.contains(q) for iv in self.pieces)

    def issubset(self, other: IntervalSet) -> bool:
        return _hosts(self, other) is not None

    def closure(self) -> IntervalSet:
        return normalize(iv.closure() for iv in self.pieces)

    def __str__(self) -> str:
        if not self.pieces:
            return "empty"
        return " U ".join(map(str, self.pieces))

    def __repr__(self) -> str:
        return f"IntervalSet[{self}]"


(_set_pieces,) = IntervalSet._setters
EMPTY = IntervalSet(())
REALS = IntervalSet((Interval(NEG_INF, POS_INF),))


def _hosts(s: IntervalSet, x: IntervalSet) -> list[Interval] | None:
    """The piece of ``x`` holding each piece of ``s``, in order, or None when
    ``s`` is not a subset of ``x``.

    A connected piece fits inside a canonical union iff it fits inside a
    single piece, so one merge sweep finds every host: it gallops past the
    pieces of ``x`` that end before the next piece of ``s`` does.
    """
    po = x.pieces
    n = len(po)
    oi = 0
    hosts = []
    for p in s.pieces:
        if oi + 1 < n and po[oi + 1] is p:
            oi += 1  # a piece of x itself is its own host
        else:
            if oi < n and _ends_short_of(po[oi], p):
                oi = _gallop(po, oi + 1, n, _ends_short_of, p)
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
    _set_pieces(s, pieces)
    return s


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
        items.sort(key=_BY_START)
    return _merge_ordered(items)


# The sort key of the lower-end order: the sort reads only "<", which is
# `_starts_before`.
_BY_START = cmp_to_key(lambda x, y: -_starts_before(x, y))


def _merge_ordered(items) -> IntervalSet:
    # Canonical form of intervals given in line order of their lower ends.
    merged: list[Interval] = []
    for iv in items:
        if merged and not _gap_between(merged[-1], iv):
            prev = merged.pop()
            if _ends_by(iv, prev):
                hi, hi_closed = prev.hi, prev.hi_closed
            else:
                hi, hi_closed = iv.hi, iv.hi_closed
            merged.append(_mk_interval(prev.lo, hi, prev.lo_closed, hi_closed))
        else:
            merged.append(iv)
    return _mk_set(tuple(merged))


def _intersect_pieces(x: Interval, y: Interval) -> Interval:
    """The piece two pieces share; they must meet."""
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
    return _mk_interval(lo, hi, lo_closed, hi_closed)


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Both inputs are canonical, hence in line order: merge them in one pass.

    The piece starting first goes next.  When it ends with a gap before the
    other set's piece, so may the pieces after it: that run goes out as it
    is.  A run of pieces ending inside the last piece out is skipped.
    """
    pa, pb = a.pieces, b.pieces
    if not pa:
        return b
    if not pb:
        return a
    out: list[Interval] = []
    na, nb = len(pa), len(pb)
    ai = bi = 0
    while ai < na and bi < nb:
        if _starts_before(pb[bi], pa[ai]):
            pa, pb, na, nb, ai, bi = pb, pa, nb, na, bi, ai
        x = pa[ai]
        if out and not _gap_between(out[-1], x):
            ai = _absorb(out, pa, ai, na)
        elif _gap_between(x, pb[bi]):
            run = _gallop(pa, ai + 1, na, _gap_between, pb[bi])
            out += pa[ai:run]
            ai = run
        else:
            out.append(x)
            ai += 1
    for rest, i, n in ((pa, ai, na), (pb, bi, nb)):
        if i < n and not _gap_between(out[-1], rest[i]):
            i = _absorb(out, rest, i, n)
        out += rest[i:]
    return _mk_set(tuple(out))


def _union_all(sets) -> IntervalSet:
    """The union of many canonical sets, folded in order from the empty set."""
    return reduce(union, sets, EMPTY)


def _absorb(out: list[Interval], pieces, i: int, n: int) -> int:
    # pieces[i] overlaps or touches out[-1] and starts no earlier: skip the
    # run of pieces ending inside out[-1], then stretch out[-1] over the
    # next piece if it still touches.
    last = out[-1]
    if _ends_by(pieces[i], last):
        i = _gallop(pieces, i + 1, n, _ends_by, last)
        if i == n or _gap_between(last, pieces[i]):
            return i
    x = pieces[i]
    out[-1] = _mk_interval(last.lo, x.hi, last.lo_closed, x.hi_closed)
    return i + 1


def intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Both inputs are canonical, so one merge sweep suffices and the result
    comes out canonical piece by piece.

    A piece both sets share goes out at once.  Otherwise the piece ending
    first, x, meets the other set's piece y in one of three ways: not at
    all, when x ends before y (skip the run of such pieces); wholly, when x
    starts inside y (copy the run of pieces ending inside y, the very same
    objects); or in a clipped piece from the start of y to the end of x.
    """
    pa, pb = a.pieces, b.pieces
    if not pa or not pb:
        return EMPTY
    out: list[Interval] = []
    na, nb = len(pa), len(pb)
    ai = bi = 0
    while ai < na and bi < nb:
        x, y = pa[ai], pb[bi]
        if x is y:
            out.append(x)
            ai += 1
            bi += 1
            continue
        if not _ends_by(x, y):
            pa, pb, na, nb, ai, bi, x, y = pb, pa, nb, na, bi, ai, y, x
        if not _starts_before(x, y):
            run = _gallop(pa, ai + 1, na, _ends_by, y)
            out += pa[ai:run]
            ai = run
        elif _ends_before(x, y):
            ai = _gallop(pa, ai + 1, na, _ends_before, y)
        else:
            out.append(_mk_interval(y.lo, x.hi, y.lo_closed, x.hi_closed))
            ai += 1
    return _mk_set(tuple(out))


def difference(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """The points of ``a`` outside ``b``, in one merge sweep.

    Pieces of ``b`` ending before the current piece of ``a`` are skipped,
    and the run of pieces of ``a`` ending before the current piece of ``b``
    is copied as it is.  Any other piece of ``a`` is cut, in line order, by
    the pieces of ``b`` that overlap it; a piece of ``b`` reaching past its
    end may cut the next one too.  No intermediate set is built, and the
    cuts come out in line order, hence canonical.
    """
    pa, pb = a.pieces, b.pieces
    if not pa or not pb:
        return a
    out: list[Interval] = []
    na, nb = len(pa), len(pb)
    ai = bi = 0
    while ai < na:
        x = pa[ai]
        # Pieces of b ending before x starts cut no later piece of a either.
        y = pb[bi]
        if _ends_before(y, x):
            bi = _gallop(pb, bi + 1, nb, _ends_before, x)
            if bi == nb:
                out += pa[ai:]
                break
            y = pb[bi]
        if _ends_before(x, y):
            run = _gallop(pa, ai + 1, na, _ends_before, y)
            out += pa[ai:run]
            ai = run
            continue
        # y overlaps x: cut x by y and by the next pieces of b that overlap it,
        # up to one covering the rest of x (it may reach into the next piece).
        # Only the first cut can be empty: every later one runs from one piece
        # of b to the next, and canonical form puts a gap between those two.
        if _starts_before(x, y):
            out.append(_mk_interval(x.lo, y.lo, x.lo_closed, not y.lo_closed))
        while not _ends_by(x, y):
            lo, lo_closed = y.hi, not y.hi_closed  # start of what is left of x
            bi += 1
            if bi == nb or _ends_before(x, pb[bi]):
                out.append(_mk_interval(lo, x.hi, lo_closed, x.hi_closed))
                break
            y = pb[bi]
            out.append(_mk_interval(lo, y.lo, lo_closed, not y.lo_closed))
        ai += 1
        if bi == nb:
            out += pa[ai:]
            break
    return _mk_set(tuple(out))


def not_interior_in(s: IntervalSet, x: IntervalSet) -> IntervalSet:
    """The points of ``s`` not interior in the subspace ``x``: s ∩ cl(x∖s).

    Decided per piece P of s and its host H in x by `_open_in_host`: no
    other piece of s touches P, so a point of P fails to be interior exactly
    when it is a closed end of P that H reaches past.  The points come out
    in line order, hence canonical.
    """
    return _not_interior(s.pieces, _hosts_or_raise(s, x))


def _not_interior(pieces, hosts) -> IntervalSet:
    """`not_interior_in` given each piece's host."""
    out = []
    for p, h in zip(pieces, hosts):
        if _open_in_host(p, h):
            continue
        if p.lo_closed and _lt(h.lo, p.lo):
            out.append(_mk_interval(p.lo, p.lo, True, True))
            if _eq(p.lo, p.hi):
                continue  # a single point, already out
        if p.hi_closed and _lt(p.hi, h.hi):
            out.append(_mk_interval(p.hi, p.hi, True, True))
    return _mk_set(tuple(out))


def _open_in_host(p: Interval, h: Interval) -> bool:
    """A piece is open in a piece h holding it: h reaches past no closed end
    of p."""
    if p is h:
        return True  # a piece of x is clopen in x
    return not ((p.lo_closed and _lt(h.lo, p.lo)) or (p.hi_closed and _lt(p.hi, h.hi)))


def interior_in(s: IntervalSet, x: IntervalSet) -> IntervalSet:
    """Interior of ``s`` in the subspace ``x``."""
    return difference(s, not_interior_in(s, x))


def is_open_in(s: IntervalSet, x: IntervalSet) -> bool:
    """s is open in x when each piece of s is open in its host piece of x
    (`_open_in_host`)."""
    return all(map(_open_in_host, s.pieces, _hosts_or_raise(s, x)))


def is_closed_in(s: IntervalSet, x: IntervalSet) -> bool:
    """s is closed in x when each piece of s is closed in its host piece of
    x (no other piece of x can hold an end of it)."""
    return all(map(_closed_in_host, s.pieces, _hosts_or_raise(s, x)))


def _closed_in_host(p: Interval, h: Interval) -> bool:
    """A piece is closed in a piece h holding it: no excluded finite end of
    p lies in h."""
    if p is h:
        return True  # a piece of x is clopen in x
    if not p.lo_closed and (_lt(h.lo, p.lo) or (h.lo_closed and _eq(h.lo, p.lo))):
        return False
    return p.hi_closed or not (_lt(p.hi, h.hi) or (h.hi_closed and _eq(h.hi, p.hi)))


def midpoint(a: Fraction, b: Fraction) -> Fraction:
    """(a + b)/2 over twice the lcm of the denominators (Knuth 4.5.1), not
    their product, which is twice as wide when they share a wide factor."""
    an, ad = a._numerator, a._denominator
    bn, bd = b._numerator, b._denominator
    d = math.gcd(ad, bd)
    return _frac(an * (bd // d) + bn * (ad // d), 2 * (ad // d) * bd)


def inner_point(lo: Value, hi: Value) -> Fraction:
    """A deterministic rational strictly between lo < hi: the midpoint of two
    finite ends, one unit inside a single finite end, else 0."""
    if is_finite(lo):
        if is_finite(hi):
            return midpoint(lo, hi)
        return _plus(lo, 1, 1)
    if is_finite(hi):
        return _plus(hi, -1, 1)
    return Fraction(0)


def pick_point(s: IntervalSet) -> Fraction:
    """A deterministic rational inside a nonempty set."""
    if not s.pieces:
        raise ValueError("cannot pick a point from the empty set")
    iv = s.pieces[0]
    if iv.lo_closed:
        return iv.lo
    return inner_point(iv.lo, iv.hi)


_ENDPOINT = r"-inf|inf|-?\d+(?:/\d+)?"
_INTERVAL_RE = re.compile(rf"([\[(])({_ENDPOINT}),({_ENDPOINT})([\])])\Z")
_POINT_RE = re.compile(r"-?\d+(?:/\d+)?\Z")
# One piece of canonical text and the separator after it: an endpoint is an
# infinity or a numeral of ASCII digits with no leading zero and no minus
# zero, over a denominator with no leading zero.  Groups: the piece's own text, its left
# bracket, per endpoint the infinity or the numerator and the denominator,
# and its right bracket.
_CANON_END = r"(-?inf)|(-?[1-9][0-9]*|0)(?:/([1-9][0-9]*))?"
_CANON_RE = re.compile(rf"(([\[(])(?:{_CANON_END}),(?:{_CANON_END})([\])]))(?: U |\Z)")


def _parse_rational(text: str, what: str, shown: str) -> Fraction:
    # `text` matched INT or INT "/" POSINT; a part too long for int() is
    # reported before a zero denominator, as Fraction(text) does.
    num, _, den = text.partition("/")
    try:
        n = int(num)
        d = int(den) if den else 1
    except ValueError as exc:  # beyond the interpreter's text-to-integer digit limit
        raise ParseError(f"{what} too long ({len(text)} characters)") from exc
    if d == 0:
        raise ParseError(f"zero denominator in {what} {shown!r}")
    return _frac(n, d)


def _parse_endpoint(text: str) -> Value:
    if text == "inf":
        return POS_INF
    if text == "-inf":
        return NEG_INF
    return _parse_rational(text, "endpoint", text)


def _scan_canonical(flat: str) -> IntervalSet | None:
    """The set that canonical text reads as, in one scan, or None to leave
    the text to `parse_set`'s general reader.

    The scan reads pieces matching `_CANON_RE`, joined by exactly ``" U "``
    and tiling the whole text, each a valid interval with a gap before the
    next.  Text not already canonical, with pieces out of order, touching
    or overlapping, is declined.  A piece keeps its text when both of its
    endpoints print as read: an infinity, an integer, or a fraction in
    lowest terms over a denominator other than 1.
    """
    found = _CANON_RE.findall(flat)
    if sum(len(m[0]) for m in found) + 3 * len(found) - 3 != len(flat):
        return None
    pieces: list[Interval] = []
    try:
        for text, lo_b, lo_inf, lo_n, lo_d, hi_inf, hi_n, hi_d, hi_b in found:
            if lo_inf:
                lo = NEG_INF if lo_inf == "-inf" else POS_INF
            elif lo_d:
                d = int(lo_d)
                lo = _frac(int(lo_n), d)
                if d == 1 or lo._denominator != d:
                    text = None
            else:
                lo = _frac(int(lo_n), 1)
            if hi_inf:
                hi = NEG_INF if hi_inf == "-inf" else POS_INF
            elif hi_d:
                d = int(hi_d)
                hi = _frac(int(hi_n), d)
                if d == 1 or hi._denominator != d:
                    text = None
            else:
                hi = _frac(int(hi_n), 1)
            lo_closed, hi_closed = lo_b == "[", hi_b == "]"
            if _interval_fault(lo, hi, lo_closed, hi_closed):
                return None
            iv = _mk_interval(lo, hi, lo_closed, hi_closed, text)
            if pieces and not _gap_between(pieces[-1], iv):
                return None
            pieces.append(iv)
    except ValueError:  # beyond the interpreter's text-to-integer digit limit
        return None
    return _mk_set(tuple(pieces))


def parse_set(text: str) -> IntervalSet:
    """Parse the SET grammar (or the word ``empty``) into canonical form.

    Text of canonical pieces joined by ``" U "`` is read in one scan
    (`_scan_canonical`).  Any other text is read part by part, by the one
    reader of every parse error, and goes through `normalize`.
    """
    flat = text.strip()
    if flat == "empty":
        return EMPTY
    if not flat:
        raise ParseError("empty interval-set text")
    scanned = _scan_canonical(flat)
    if scanned is not None:
        return scanned
    intervals: list[Interval] = []
    for part in flat.split("U"):
        squeezed = "".join(part.split())
        m = _INTERVAL_RE.match(squeezed)
        if m is None:
            raise ParseError(f"bad interval syntax: {part.strip()!r}")
        lo_b, lo_t, hi_t, hi_b = m.groups()
        ends = (_parse_endpoint(lo_t), _parse_endpoint(hi_t), lo_b == "[", hi_b == "]")
        fault = _interval_fault(*ends)
        if fault:
            raise ParseError(fault)
        intervals.append(_mk_interval(*ends))
    return normalize(intervals)


def parse_point(text: str) -> Fraction:
    """Parse a rational in the EP grammar (infinities are not points)."""
    flat = "".join(text.split())
    if not _POINT_RE.match(flat):
        raise ParseError(f"bad rational point: {text!r}")
    return _parse_rational(flat, "point", text)
