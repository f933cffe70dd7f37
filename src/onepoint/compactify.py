"""Alexandroff extension: an extra point whose neighborhoods have compact
closed complements.  Exists exactly when the space itself is non-compact,
the mirror image of the connectification verdict."""

from __future__ import annotations

from fractions import Fraction

from .errors import NotACover
from .frozen import Frozen
from .connectify import ExtPoint, NamedPoint, OpenCheck, TypeI, trace_open_check
from .connectify import separate_points, verify_separated
from .intervals import IntervalSet, _lt, _mk_interval, _mk_set, _plus, _starts_before, _union_all
from .intervals import difference, interior_in, is_finite, midpoint
from .space import Space, closed_and_bounded, component_index


class CompactExtension(Frozen):
    """The space plus the point at infinity."""

    __slots__ = ("space",)


class CompactRefused(Frozen):
    """The space is already compact, so no point at infinity is added."""

    __slots__ = ()


CompactVerdict = CompactExtension | CompactRefused


def is_space_compact(space: Space) -> bool:
    """Compact iff every piece is a bounded closed interval."""
    return all(map(closed_and_bounded, space.ambient.pieces))


def compactify(space: Space) -> CompactVerdict:
    if is_space_compact(space):
        return CompactRefused()
    return CompactExtension(space)


class TypeInf(Frozen):
    """Open set containing infinity: the complement of its trace is compact."""

    __slots__ = ("trace",)


CompOpenSet = TypeI | TypeInf

#: The added point at infinity.
INFINITY = NamedPoint("infinity", TypeInf)


def is_open_in_compactification(ce: CompactExtension, u: CompOpenSet) -> OpenCheck:
    x = ce.space.ambient
    chk = trace_open_check(u.trace, x)
    if chk and isinstance(u, TypeInf):
        if not all(map(closed_and_bounded, difference(x, u.trace).pieces)):
            return OpenCheck("RemainderNotCompact")
    return chk


def _witness_from_infinity(ce: CompactExtension, z: Fraction) -> tuple[TypeInf, TypeI]:
    """Shrink a compact closed box around z; infinity gets the complement.

    The box reaches 1 from z on each side, stopped at an included end of the
    piece, and halfway to an excluded end nearer than 2.
    """
    x = ce.space.ambient
    piece = x.pieces[component_index(ce.space, z)]
    k_lo, k_hi = _plus(z, -1, 1), _plus(z, 1, 1)
    if is_finite(piece.lo):
        if piece.lo_closed:
            if _lt(k_lo, piece.lo):
                k_lo = piece.lo
        elif _lt(_plus(z, -2, 1), piece.lo):
            k_lo = midpoint(piece.lo, z)
    if is_finite(piece.hi):
        if piece.hi_closed:
            if _lt(piece.hi, k_hi):
                k_hi = piece.hi
        elif _lt(piece.hi, _plus(z, 2, 1)):
            k_hi = midpoint(z, piece.hi)
    box = _mk_set((_mk_interval(k_lo, k_hi, True, True),))
    return TypeInf(difference(x, box)), TypeI(interior_in(box, x))


def compactification_hausdorff_witness(
    ce: CompactExtension, y: ExtPoint, z: ExtPoint
) -> tuple[CompOpenSet, CompOpenSet]:
    """Disjoint open neighborhoods of two distinct compactification points."""
    return separate_points(ce.space, INFINITY, lambda q: _witness_from_infinity(ce, q), y, z)


def verify_compact_hausdorff(
    ce: CompactExtension, y: ExtPoint, z: ExtPoint, u: CompOpenSet, v: CompOpenSet
) -> bool:
    def is_open(w):
        kind_ok = isinstance(w, (TypeI, TypeInf)) and isinstance(w.trace, IntervalSet)
        return kind_ok and is_open_in_compactification(ce, w)

    return verify_separated(is_open, y, z, u, v)


def finite_subcover(ce: CompactExtension, cover) -> list[CompOpenSet]:
    """Greedy subcover of a finite open cover of the compactification.

    The first infinity member leaves a compact remainder, which a left-to-right
    sweep covers by always choosing the member that pushes the uncovered
    frontier farthest: the first piece of what it leaves uncovered starts
    latest, an empty rest past every end, and a tie keeps the earlier member.
    """
    cover = list(cover)
    x = ce.space.ambient
    for m in cover:
        if not is_open_in_compactification(ce, m):
            raise NotACover(f"invalid cover member: {m}")
    inf_members = [i for i, m in enumerate(cover) if isinstance(m, TypeInf)]
    if not inf_members:
        raise NotACover("no member covers the infinity point")
    if _union_all(m.trace for m in cover) != x:
        raise NotACover("union of traces misses part of the space")
    chosen = [inf_members[0]]
    remaining = difference(x, cover[inf_members[0]].trace)
    while remaining:
        best_i, best_rest = None, remaining
        for i, m in enumerate(cover):
            if i in chosen:
                continue
            rest = difference(remaining, m.trace)
            if best_rest and (not rest or _starts_before(best_rest.pieces[0], rest.pieces[0])):
                best_i, best_rest = i, rest
        if best_i is None:
            raise NotACover("greedy sweep stalled")
        chosen.append(best_i)
        remaining = best_rest
    return [cover[i] for i in sorted(chosen)]
