"""A canonical interval set viewed as an ambient topological space.

Each canonical piece is separated from its neighbours by a genuine gap of the
line (a missing point or a positive stretch), so the pieces are exactly the
connected components, each simultaneously closed and open in the space.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .errors import EmptySpace, EqualPoints, NotASubset, NotClosed, NotDisjoint
from .errors import PointOutsideComponent
from .frozen import Frozen
from .intervals import (
    EMPTY,
    Interval,
    IntervalSet,
    NEG_INF,
    POS_INF,
    _BY_START,
    _ends_before,
    _ends_by,
    _eq,
    _mk_interval,
    _mk_set,
    _starts_before,
    inner_point,
    intersect,
    is_closed_in,
    is_finite,
    midpoint,
    only,
)


class Component(Frozen):
    """A maximal connected piece of the ambient set (always clopen here)."""

    __slots__ = ("piece", "index")

    def __init__(self, piece: Interval, index: int) -> None:
        _set_piece(self, piece)
        _set_index(self, index)

    def as_set(self) -> IntervalSet:
        return only(self.piece)

    def __str__(self) -> str:
        return f"C#{self.index}={self.piece}"


# See intervals._set_lo.
_set_piece, _set_index = Component._setters


class Space(Frozen):
    """A nonempty canonical interval set with its subspace topology."""

    __slots__ = ("ambient",)

    def __init__(self, ambient: IntervalSet) -> None:
        if not ambient.pieces:
            raise EmptySpace("a space needs at least one point")
        super().__init__(ambient)

    def __str__(self) -> str:
        return str(self.ambient)


def components(space: Space) -> tuple[Component, ...]:
    """The components of the space, in line order."""
    return tuple(Component(piece, i) for i, piece in enumerate(space.ambient.pieces))


def component_index(space: Space, z: Fraction) -> int:
    """The index of the component holding the point z."""
    pieces = space.ambient.pieces
    i = bisect_right(pieces, z, key=lambda p: p.lo) - 1
    if i < 0 or not pieces[i].contains(z):
        raise PointOutsideComponent(f"{z} is not a point of {space.ambient}")
    return i


def closed_and_bounded(p: Interval) -> bool:
    """Heine-Borel on one interval: compact iff closed and bounded."""
    return p.lo_closed and p.hi_closed and is_finite(p.lo) and is_finite(p.hi)


def is_compact(comp: Component) -> bool:
    """A component is compact iff its interval is closed and bounded."""
    return closed_and_bounded(comp.piece)


def has_compact_component(space: Space) -> Component | None:
    """The first compact component in line order, if any."""
    for i, piece in enumerate(space.ambient.pieces):
        if closed_and_bounded(piece):
            return Component(piece, i)
    return None


class LocalConnectednessCertificate(Frozen):
    """Per component, a line-open interval whose trace is exactly that component."""

    __slots__ = ("entries",)


def local_connectedness_certificate(space: Space) -> LocalConnectednessCertificate:
    """Witness that every component is the trace of a line-open interval.

    The witness for a component reaches from the previous piece's upper
    endpoint value (or one unit below an included finite end) to the next
    piece's lower endpoint value (or one unit above), open on both sides.
    Only the first piece can start at -inf and only the last end at +inf,
    and an infinite end is excluded, so it is its own window end.
    """
    pieces = space.ambient.pieces
    entries = []
    for comp in components(space):
        p, i = comp.piece, comp.index
        if i > 0:
            w_lo: object = pieces[i - 1].hi
        elif not p.lo_closed:
            w_lo = p.lo
        else:
            w_lo = inner_point(NEG_INF, p.lo)  # one unit below
        if i + 1 < len(pieces):
            w_hi: object = pieces[i + 1].lo
        elif not p.hi_closed:
            w_hi = p.hi
        else:
            w_hi = inner_point(p.hi, POS_INF)  # one unit above
        entries.append((comp, _mk_interval(w_lo, w_hi, False, False)))
    return LocalConnectednessCertificate(tuple(entries))


def verify_local_connectedness(space: Space, cert: LocalConnectednessCertificate) -> bool:
    """Replay the certificate on each window's endpoints.  Each entry names
    component i, checked by identity of its piece first and then by
    equality, and its window is open.  A window is an interval, so one that
    holds its component's piece and misses both neighbours misses every
    other piece too: its trace is exactly the component."""
    pieces = space.ambient.pieces
    if len(cert.entries) != len(pieces):
        return False
    last = len(pieces) - 1
    for i, (comp, w) in enumerate(cert.entries):
        p = pieces[i]
        same = comp.__class__ is Component and comp.piece is p and comp.index == i
        if not (same or comp == Component(p, i)) or w.lo_closed or w.hi_closed:
            return False
        if _starts_before(p, w) or not _ends_by(p, w):
            return False
        if (i > 0 and not _ends_before(pieces[i - 1], w)) or (
            i < last and not _ends_before(w, pieces[i + 1])
        ):
            return False
    return True


def separate_disjoint_closed(
    space: Space, f: IntervalSet, g: IntervalSet
) -> tuple[IntervalSet, IntervalSet]:
    """Disjoint open supersets of two disjoint closed sets.

    Deterministic: between adjacent pieces of different owners, cut at the
    rational midpoint of the line gap, or at the single missing point when
    the gap has length zero; the outermost zones run to the infinities.
    """
    x = space.ambient
    for name, s in (("F", f), ("G", g)):
        try:
            closed = is_closed_in(s, x)
        except NotASubset:
            closed = False
        if not closed:
            raise NotClosed(f"{name} = {s} is not closed in {x}")
    if intersect(f, g):
        raise NotDisjoint(f"{f} meets {g}")
    if not f:
        return EMPTY, x
    if not g:
        return x, EMPTY

    # F and G are disjoint, so no two of their pieces start together: the
    # lower-end order puts the tagged pieces in line order.
    tagged = [(piece, 0) for piece in f.pieces] + [(piece, 1) for piece in g.pieces]
    tagged.sort(key=lambda t: _BY_START(t[0]))
    # The zones between cuts alternate owners from the first piece's, so each
    # owner's zones, parted by the other's, are canonical as listed.
    cuts: list[object] = [NEG_INF]
    for (a, owner), (b, nxt) in zip(tagged, tagged[1:]):
        if nxt != owner:
            # Both are finite here: a has a successor, b a predecessor.
            cuts.append(a.hi if _eq(a.hi, b.lo) else midpoint(a.hi, b.lo))
    cuts.append(POS_INF)
    zones = [_mk_interval(lo, hi, False, False) for lo, hi in zip(cuts, cuts[1:])]
    first = tagged[0][1]
    u = intersect(_mk_set(tuple(zones[first::2])), x)
    v = intersect(_mk_set(tuple(zones[1 - first::2])), x)
    return u, v


def split_points(space: Space, y: Fraction, z: Fraction) -> tuple[IntervalSet, IntervalSet]:
    """Disjoint opens around two distinct points of the space, y side first;
    both points are plain `Fraction`s."""
    if y == z:
        raise EqualPoints(f"{y} given twice")
    for q in (y, z):
        component_index(space, q)
    f, g = (_mk_set((_mk_interval(q, q, True, True),)) for q in (y, z))
    return separate_disjoint_closed(space, f, g)
