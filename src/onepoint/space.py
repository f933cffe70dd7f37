"""A canonical interval set viewed as an ambient topological space.

Each canonical piece is separated from its neighbours by a genuine gap of the
line (a missing point or a positive stretch), so the pieces are exactly the
connected components, each simultaneously closed and open in the space.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptySpace, EqualPoints, NotClosed, NotDisjoint, PointOutsideComponent
from .intervals import (
    EMPTY,
    Interval,
    IntervalSet,
    NEG_INF,
    POS_INF,
    _eq,
    _lt,
    _mk_set,
    _starts_before,
    intersect,
    is_closed_in,
    is_finite,
    midpoint,
    normalize,
    only,
)


@dataclass(frozen=True, slots=True)
class Component:
    """A maximal connected piece of the ambient set (always clopen here)."""

    piece: Interval
    index: int

    def as_set(self) -> IntervalSet:
        return only(self.piece)

    def __str__(self) -> str:
        return f"C#{self.index}={self.piece}"


@dataclass(frozen=True, slots=True)
class Space:
    """A nonempty canonical interval set with its subspace topology."""

    ambient: IntervalSet

    def __post_init__(self) -> None:
        if not self.ambient.pieces:
            raise EmptySpace("a space needs at least one point")

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


def component_slices(space: Space, s: IntervalSet) -> tuple[IntervalSet, ...]:
    """s ∩ C for every component C, in line order, from one sweep: each piece
    of s ∩ X lies inside exactly one component."""
    p = space.ambient.pieces
    slices: list[list[Interval]] = [[] for _ in p]
    i = 0
    for iv in intersect(s, space.ambient).pieces:
        while _lt(p[i].hi, iv.hi) or (iv.hi_closed and not p[i].hi_closed and _eq(p[i].hi, iv.hi)):
            i += 1
        slices[i].append(iv)
    return tuple(_mk_set(tuple(sl)) for sl in slices)


def closed_and_bounded(p: Interval) -> bool:
    """Heine-Borel on one interval: compact iff closed and bounded."""
    return is_finite(p.lo) and is_finite(p.hi) and p.lo_closed and p.hi_closed


def is_compact(comp: Component) -> bool:
    """A component is compact iff its interval is closed and bounded."""
    return closed_and_bounded(comp.piece)


def has_compact_component(space: Space) -> Component | None:
    """The first compact component in line order, if any."""
    for comp in components(space):
        if is_compact(comp):
            return comp
    return None


@dataclass(frozen=True, slots=True)
class LocalConnectednessCertificate:
    """Per component, a line-open interval whose trace is exactly that component."""

    entries: tuple[tuple[Component, Interval], ...]


def local_connectedness_certificate(space: Space) -> LocalConnectednessCertificate:
    """Witness that every component is the trace of a line-open interval.

    The witness for a component reaches from the previous piece's upper
    endpoint value (or one unit below an included finite end) to the next
    piece's lower endpoint value (or one unit above), open on both sides.
    """
    pieces = space.ambient.pieces
    entries = []
    for comp in components(space):
        p, i = comp.piece, comp.index
        if not is_finite(p.lo):
            w_lo: object = NEG_INF
        elif i > 0:
            w_lo = pieces[i - 1].hi
        elif not p.lo_closed:
            w_lo = p.lo
        else:
            w_lo = p.lo - 1
        if not is_finite(p.hi):
            w_hi: object = POS_INF
        elif i + 1 < len(pieces):
            w_hi = pieces[i + 1].lo
        elif not p.hi_closed:
            w_hi = p.hi
        else:
            w_hi = p.hi + 1
        entries.append((comp, Interval(w_lo, w_hi, False, False)))
    return LocalConnectednessCertificate(tuple(entries))


def verify_local_connectedness(space: Space, cert: LocalConnectednessCertificate) -> bool:
    """Replay the certificate with the set algebra alone.  A window is an
    interval, so one that holds its component and misses both neighbours
    misses every other piece too."""
    if tuple(c for c, _ in cert.entries) != components(space):
        return False
    pieces = space.ambient.pieces
    for comp, w in cert.entries:
        if w.lo_closed or w.hi_closed:
            return False
        near = _mk_set(pieces[max(0, comp.index - 1) : comp.index + 2])
        if intersect(only(w), near) != comp.as_set():
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
        if not s.issubset(x) or not is_closed_in(s, x):
            raise NotClosed(f"{name} = {s} is not closed in {x}")
    if intersect(f, g):
        raise NotDisjoint(f"{f} meets {g}")
    if not f:
        return EMPTY, x
    if not g:
        return x, EMPTY

    # Both are canonical, hence in line order: merge them as `union` does.
    pf, pg = f.pieces, g.pieces
    tagged: list[tuple[Interval, int]] = []
    fi = gi = 0
    while fi < len(pf) and gi < len(pg):
        if _starts_before(pg[gi], pf[fi]):
            tagged.append((pg[gi], 1))
            gi += 1
        else:
            tagged.append((pf[fi], 0))
            fi += 1
    tagged += [(piece, 0) for piece in pf[fi:]] + [(piece, 1) for piece in pg[gi:]]
    zones: tuple[list[Interval], list[Interval]] = ([], [])
    run_start: object = NEG_INF
    for idx, (piece, owner) in enumerate(tagged):
        nxt = tagged[idx + 1] if idx + 1 < len(tagged) else None
        if nxt is not None and nxt[1] == owner:
            continue
        if nxt is None:
            run_end: object = POS_INF
        else:
            a, b = piece.hi, nxt[0].lo
            # Both are finite here: a has a successor, b a predecessor.
            run_end = a if _eq(a, b) else midpoint(a, b)
        zones[owner].append(Interval(run_start, run_end, False, False))
        run_start = run_end
    u = intersect(normalize(zones[0]), x)
    v = intersect(normalize(zones[1]), x)
    return u, v


def split_points(space: Space, y: Fraction, z: Fraction) -> tuple[IntervalSet, IntervalSet]:
    """Disjoint opens around two distinct points of the space, y side first."""
    if y == z:
        raise EqualPoints(f"{y} given twice")
    for q in (y, z):
        component_index(space, q)
    return separate_disjoint_closed(
        space, only(Interval(y, y, True, True)), only(Interval(z, z, True, True))
    )
