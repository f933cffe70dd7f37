"""Reference algebra for finite unions of intervals, independent of onepoint.

A check collects every endpoint it will meet, sorts them, and cuts the line
into *atoms*: the open rays and gaps between consecutive endpoints and the
endpoints themselves.  Every set in the check is a union of atoms, so it
becomes a bitmask over atoms and the set operations become integer bit
operations.  This shares no algorithm with onepoint's piece-merging sweeps.

Atom layout for sorted endpoints p_0 < ... < p_{m-1}::

    0        the ray (-inf, p_0)
    2i + 1   the point {p_i}
    2i + 2   the gap (p_i, p_{i+1}), or the ray (p_{m-1}, inf) when i = m-1

An interval is a tuple ``(lo, hi, lo_closed, hi_closed)`` with ``None`` for
an infinite end.
"""

from __future__ import annotations

import re
from fractions import Fraction

_EP = r"-inf|inf|-?\d+(?:/\d+)?"
_IV = re.compile(rf"([\[(])({_EP}),({_EP})([\])])\Z")


class RecordError(ValueError):
    """A program output that does not follow the record grammar."""


def parse_value(text: str):
    if text in ("inf", "-inf"):
        return None
    if not re.fullmatch(r"-?\d+(?:/\d+)?", text):
        raise RecordError(f"bad rational {text!r}")
    num, _, den = text.partition("/")
    if den and int(den) == 0:
        raise RecordError(f"zero denominator in {text!r}")
    return Fraction(int(num), int(den) if den else 1)


def parse_interval(text: str):
    m = _IV.match(text.strip())
    if m is None:
        raise RecordError(f"bad interval {text!r}")
    lb, lo_t, hi_t, rb = m.groups()
    lo, hi = parse_value(lo_t), parse_value(hi_t)
    if (lo_t == "inf") or (hi_t == "-inf"):
        raise RecordError(f"misplaced infinity in {text!r}")
    lc, hc = lb == "[", rb == "]"
    if (lo is None and lc) or (hi is None and hc):
        raise RecordError(f"closed infinite end in {text!r}")
    if lo is not None and hi is not None and (lo > hi or (lo == hi and not (lc and hc))):
        raise RecordError(f"empty interval {text!r}")
    return (lo, hi, lc, hc)


def parse_set(text: str) -> list:
    """Pieces of a SET record in the order written (``empty`` gives [])."""
    text = text.strip()
    if text == "empty":
        return []
    return [parse_interval(part) for part in text.split(" U ")]


def fmt_value(v) -> str:
    return "inf" if v is None else str(v)


def fmt_interval(iv) -> str:
    lo, hi, lc, hc = iv
    left = "[" if lc else "("
    right = "]" if hc else ")"
    return f"{left}{'-inf' if lo is None else lo},{fmt_value(hi)}{right}"


def fmt_set(pieces) -> str:
    return " U ".join(fmt_interval(p) for p in pieces) if pieces else "empty"


def endpoints(pieces):
    for lo, hi, _, _ in pieces:
        if lo is not None:
            yield lo
        if hi is not None:
            yield hi


class Line:
    """The atom decomposition of the line for one fixed set of endpoints."""

    def __init__(self, values):
        self.pts = sorted(set(values))
        self.pos = {q: i for i, q in enumerate(self.pts)}
        self.size = 2 * len(self.pts) + 1
        self.full = (1 << self.size) - 1
        self.points = sum(1 << (2 * i + 1) for i in range(len(self.pts)))
        self.gaps = self.full ^ self.points

    @classmethod
    def over(cls, *piece_lists, extra=()):
        vals = list(extra)
        for pieces in piece_lists:
            vals.extend(endpoints(pieces))
        return cls(vals)

    def interval(self, iv) -> int:
        lo, hi, lc, hc = iv
        start = 0 if lo is None else 2 * self.pos[lo] + (1 if lc else 2)
        end = self.size - 1 if hi is None else 2 * self.pos[hi] + (1 if hc else 0)
        if end < start:
            return 0
        return ((1 << (end + 1)) - 1) ^ ((1 << start) - 1)

    def mask(self, pieces) -> int:
        out = 0
        for iv in pieces:
            out |= self.interval(iv)
        return out

    def point(self, q: Fraction) -> int:
        return 1 << (2 * self.pos[q] + 1)

    def closure(self, a: int) -> int:
        g = a & self.gaps
        return a | (((g << 1) | (g >> 1)) & self.points)

    def is_open_in(self, t: int, x: int) -> bool:
        """T is open in X: T inside X and T misses the closure of X minus T."""
        return t & ~x == 0 and t & self.closure(x & ~t) == 0

    def is_closed_in(self, t: int, x: int) -> bool:
        return t & ~x == 0 and self.closure(t) & x & ~t == 0

    def pieces(self, a: int) -> list:
        """Maximal runs of atoms, i.e. the canonical pieces of the set."""
        out = []
        while a:
            start = (a & -a).bit_length() - 1
            t = a >> start
            end = start + (t ^ (t + 1)).bit_length() - 2
            lo, lc = self._edge(start, 0)
            hi, hc = self._edge(end, 1)
            out.append((lo, hi, lc, hc))
            a &= ~((1 << (end + 1)) - 1)
        return out

    def _edge(self, atom: int, side: int):
        # A run starting (side 0) or ending (side 1) at this atom: a point
        # atom is an included endpoint, a gap atom an excluded one.
        if atom % 2:
            return self.pts[atom // 2], True
        i = atom // 2 - 1 + side
        return (self.pts[i] if 0 <= i < len(self.pts) else None), False


def canonical(pieces) -> list:
    """Canonical pieces of a union, computed through the atom decomposition."""
    line = Line.over(pieces)
    return line.pieces(line.mask(pieces))


def is_compact_piece(iv) -> bool:
    lo, hi, lc, hc = iv
    return lo is not None and hi is not None and lc and hc


# --------------------------------------------------------------------------
# escape filters, from the formula in onepoint's EscapeFilter docstring
# --------------------------------------------------------------------------


def filter_block(direction, anchor: Fraction, n: int):
    """The line block of element(n) before it is traced on the component."""
    kind, bound = direction
    if kind == "pos_inf":
        return (anchor + n, None, True, False)
    if kind == "neg_inf":
        return (None, anchor - n, False, True)
    if kind == "open_right":
        return (bound - (bound - anchor) / 2**n, bound, True, False)
    return (bound, bound + (anchor - bound) / 2**n, False, True)


def valid_direction(piece, direction) -> bool:
    """The direction names a non-compact end of the piece."""
    lo, hi, lc, hc = piece
    kind, bound = direction
    if kind == "pos_inf":
        return hi is None
    if kind == "neg_inf":
        return lo is None
    if kind == "open_right":
        return hi is not None and hi == bound and not hc
    return lo is not None and lo == bound and not lc


def escape_atom(line: Line, direction) -> int:
    """The atom every filter element of this direction ends in."""
    kind, bound = direction
    if kind == "pos_inf":
        return 1 << (line.size - 1)
    if kind == "neg_inf":
        return 1
    if kind == "open_right":
        return 1 << (2 * line.pos[bound])
    return 1 << (2 * line.pos[bound] + 2)


_DIR = re.compile(r"(pos_inf|neg_inf)\Z|(open_right|open_left)\((-?\d+(?:/\d+)?)\)\Z")


def parse_direction(text: str):
    m = _DIR.match(text)
    if m is None:
        raise RecordError(f"bad direction {text!r}")
    if m.group(1):
        return (m.group(1), None)
    return (m.group(2), parse_value(m.group(3)))
