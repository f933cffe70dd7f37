"""One-point connected extension of an interval space, with proof witnesses.

A space is extended by one extra point exactly when no component is compact.
Along every component a deterministic *escape filter* is chosen: a descending
chain of nonempty closed sets marching off a non-compact end, with empty total
intersection.  The chain supplies everything the extension topology needs:

* elements are nonempty and closed in their component,
* finite intersections stay in the chain (take the larger index),
* every point of the component is eventually avoided.

Open sets of the extension are either plain traces (type I) or sets holding
the extra point together with a whole filter tail in every component
(type II).  Every separation-style claim about the extension is returned as a
witness or certificate that re-verifies under the exact set algebra alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CompactComponent,
    DensityFailure,
    EqualPoints,
    FidelityFailure,
    InvalidExtension,
    MalformedInterval,
    NotASubset,
    NotClosedInY,
    NotDisjoint,
    PInBoth,
    PointOutsideComponent,
)
from .intervals import (
    EMPTY,
    Interval,
    IntervalSet,
    Value,
    _eq,
    _mk_interval,
    _mk_set,
    difference,
    intersect,
    is_closed_in,
    is_finite,
    midpoint,
    normalize,
    not_interior_in,
    only,
    pick_point,
    union,
)
from .space import Component, Space, components, has_compact_component, is_compact
from .space import component_index, component_slices, separate_disjoint_closed, split_points


# --------------------------------------------------------------------------
# escape filters
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EscapeFilter:
    """Descending chain of closed escape sets along one component.

    The chain runs toward ``end`` on one ``side`` of the component: ``side``
    is +1 for the right end and -1 for the left end, and ``end`` is that end
    as a value of the extended line, an infinity or the excluded finite
    endpoint.  element(n) is the block from ``start(n)`` to ``end``, with
    ``start(n)`` included, intersected with the component: ``start(n)`` is
    ``anchor + n`` (``anchor - n`` on the left) toward an infinite end and
    ``end - (end - anchor)/2^n`` toward a finite one.
    """

    component: Component
    side: int
    end: Value
    anchor: Fraction

    def start(self, n: int) -> Fraction:
        """The near endpoint of element(n), the one away from the escape end."""
        if is_finite(self.end):
            return self.end - (self.end - self.anchor) / 2**n
        return self.anchor + n if self.side > 0 else self.anchor - n

    def toward_end(self, near: Fraction, closed: bool) -> Interval:
        """The interval from a near point to the escape end, which it excludes."""
        if self.side > 0:
            return Interval(near, self.end, closed, False)
        return Interval(self.end, near, False, closed)

    def element(self, n: int) -> IntervalSet:
        if n < 0:
            raise ValueError("filter indices are naturals")
        # start(n) lies inside the component, which runs open to the escape
        # end, so the block from start(n) to the end is already inside it.
        near = self.start(n)
        if self.side > 0:
            return _mk_set((_mk_interval(near, self.end, True, False),))
        return _mk_set((_mk_interval(self.end, near, False, True),))

    def _index_past(self, q: Fraction, included: bool) -> int:
        """Least n whose start(n) lies past q toward the end, or at q if included.

        For an infinite end this is a floor or a ceiling.  For a finite
        end, start(n) is past q exactly when span/2^n < gap, with span the
        distance from anchor to end and gap the distance from q to end; the
        least such n comes from the bit lengths of span/gap in lowest terms.
        """
        if not is_finite(self.end):
            need = q - self.anchor if self.side > 0 else self.anchor - q
            return max(0, math.ceil(need) if included else math.floor(need) + 1)
        if self.side > 0:
            span, gap = self.end - self.anchor, self.end - q
        else:
            span, gap = self.anchor - self.end, q - self.end
        num = span.numerator * gap.denominator
        den = span.denominator * gap.numerator
        n = max(0, num.bit_length() - den.bit_length())
        scaled = den << n
        return n + 1 if scaled < num or (scaled == num and not included) else n

    def avoid_index(self, z) -> int:
        """Least n with z outside element(n)."""
        z = Fraction(z)
        if not self.component.piece.contains(z):
            raise PointOutsideComponent(f"{z} is not in {self.component.piece}")
        return self._index_past(z, False)


def choose_escape(component: Component) -> EscapeFilter:
    """Deterministic escape filter: prefer the right end when non-compact."""
    if is_compact(component):
        raise CompactComponent(f"{component.piece} has no non-compact end")
    p = component.piece
    # An infinite endpoint is never included, so an open right end is non-compact.
    side, end = (-1, p.lo) if p.hi_closed else (1, p.hi)
    if is_finite(p.lo) and is_finite(p.hi):
        anchor = midpoint(p.lo, p.hi)
    elif is_finite(p.lo):
        anchor = p.lo + 1
    elif is_finite(p.hi):
        anchor = p.hi - 1
    else:
        anchor = Fraction(0)
    return EscapeFilter(component, side, end, anchor)


# --------------------------------------------------------------------------
# the extension and its open sets
# --------------------------------------------------------------------------


class NamedPoint:
    """A point added to a space: a reserved token, not a rational.

    Each added point is one module-level instance, so identity is equality.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


#: The added point of the extension.
P = NamedPoint("p")

ExtPoint = Fraction | NamedPoint


@dataclass(frozen=True, slots=True)
class Extension:
    """The space plus the extra point, one escape filter per component."""

    space: Space
    filters: tuple[EscapeFilter, ...]

    def whole_open(self) -> TypeII:
        return TypeII(self.space.ambient, (0,) * len(self.filters))


@dataclass(frozen=True, slots=True)
class TypeI:
    """Extension-open set not containing the extra point: a plain trace."""

    trace: IntervalSet


@dataclass(frozen=True, slots=True)
class TypeII:
    """Extension-open set containing the extra point.

    For every component the declared tail index witnesses that a whole
    filter tail sits inside the trace.
    """

    trace: IntervalSet
    tails: tuple[int, ...]


ExtOpenSet = TypeI | TypeII


@dataclass(frozen=True, slots=True)
class ExtClosedSet:
    """Closed subset of the extension: optional extra point plus a trace."""

    has_p: bool
    trace: IntervalSet


@dataclass(frozen=True, slots=True)
class Connectifiable:
    extension: Extension


@dataclass(frozen=True, slots=True)
class Refused:
    witness: Component
    reason: str = "clopen-obstruction"


Verdict = Connectifiable | Refused


def check_connectifiable(space: Space) -> Verdict:
    """Connectifiable iff no component is compact.

    A compact component would stay clopen and proper in any one-point
    Hausdorff extension, so it is returned as the refusal witness.
    """
    bad = has_compact_component(space)
    if bad is not None:
        return Refused(bad)
    return Connectifiable(Extension(space, tuple(choose_escape(c) for c in components(space))))


def ext_contains(u: ExtOpenSet, pt: ExtPoint) -> bool:
    if pt is P:
        return isinstance(u, TypeII)
    return Fraction(pt) in u.trace


# --------------------------------------------------------------------------
# openness in the extension
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class OpenCheck:
    ok: bool
    reason: str | None = None  # "TraceNotOpen", "MissingTail" or "RemainderNotCompact"
    component: int | None = None
    boundary: Fraction | None = None  # a point of the trace where TraceNotOpen fails

    def __bool__(self) -> bool:
        return self.ok


OPEN_OK = OpenCheck(True)


def trace_open_check(trace: IntervalSet, x: IntervalSet) -> OpenCheck:
    """Openness of a trace in x; a failure carries a trace point outside x or
    not interior in it as its boundary."""
    try:
        bad = not_interior_in(trace, x)
    except NotASubset:
        return OpenCheck(False, "TraceNotOpen", boundary=pick_point(difference(trace, x)))
    return OpenCheck(False, "TraceNotOpen", boundary=pick_point(bad)) if bad else OPEN_OK


def _escape_piece(flt: EscapeFilter, trace_in_c: IntervalSet) -> Interval | None:
    """The piece of a trace that reaches the filter's escape end, if any."""
    if not trace_in_c.pieces:
        return None
    if flt.side > 0:
        piece = trace_in_c.pieces[-1]
        return piece if _eq(piece.hi, flt.end) else None
    piece = trace_in_c.pieces[0]
    return piece if _eq(piece.lo, flt.end) else None


def _least_tail(flt: EscapeFilter, piece: Interval) -> int:
    """Least index whose element fits inside an escape-end piece."""
    near, closed = (piece.lo, piece.lo_closed) if flt.side > 0 else (piece.hi, piece.hi_closed)
    return flt._index_past(near, closed) if is_finite(near) else 0


def _escape_pieces(ext: Extension, trace: IntervalSet):
    """Per component, in line order, the piece of a trace reaching its escape end."""
    return map(_escape_piece, ext.filters, component_slices(ext.space, trace))


def is_open_in_extension(ext: Extension, u: ExtOpenSet) -> OpenCheck:
    """Openness of an extension set, decided structurally.

    Type I needs an open trace.  Type II additionally needs the trace to run
    all the way to the escape end of every component: that is exactly the
    existence of a contained filter tail.
    """
    chk = trace_open_check(u.trace, ext.space.ambient)
    if not chk or isinstance(u, TypeI):
        return chk
    if not _well_shaped(ext, u):
        raise InvalidExtension("type-II set needs one natural tail index per component")
    for i, piece in enumerate(_escape_pieces(ext, u.trace)):
        if piece is None:
            return OpenCheck(False, "MissingTail", i)
    return OPEN_OK


def _well_shaped(ext: Extension, u: TypeII) -> bool:
    """One natural tail index per component."""
    return len(u.tails) == len(ext.filters) and all(t >= 0 for t in u.tails)


def declared_tails_hold(ext: Extension, u: TypeII) -> bool:
    """The stored indices really witness tail containment (the type invariant).

    The chain descends, so a declared tail fits exactly when it is at least
    the least one that fits; no element is built, however large the index.
    """
    if not _well_shaped(ext, u):
        return False
    least = least_valid_tails(ext, u.trace)
    return least is not None and all(n >= m for n, m in zip(u.tails, least))


def least_valid_tails(ext: Extension, trace: IntervalSet) -> tuple[int, ...] | None:
    """Smallest witnessing tail indices for a trace, or None if one is missing."""
    tails = []
    for flt, piece in zip(ext.filters, _escape_pieces(ext, trace)):
        if piece is None:
            return None
        tails.append(_least_tail(flt, piece))
    return tuple(tails)


def intersect_open(ext: Extension, u: ExtOpenSet, v: ExtOpenSet) -> ExtOpenSet:
    """Intersection in the extension topology.

    Two type-II sets meet in a type-II set: the tails are nested chains, so
    the larger index witnesses the intersection.
    """
    trace = intersect(u.trace, v.trace)
    if isinstance(u, TypeII) and isinstance(v, TypeII):
        return TypeII(trace, tuple(max(a, b) for a, b in zip(u.tails, v.tails)))
    return TypeI(trace)


def union_open(ext: Extension, opens) -> ExtOpenSet:
    """Union in the extension topology; type II wins with the smaller tails."""
    opens = list(opens)
    trace = EMPTY
    for o in opens:
        trace = union(trace, o.trace)
    tail_rows = [o.tails for o in opens if isinstance(o, TypeII)]
    if tail_rows:
        return TypeII(trace, tuple(min(col) for col in zip(*tail_rows)))
    return TypeI(trace)


def _complement_open(ext: Extension, has_p: bool, trace: IntervalSet) -> ExtOpenSet:
    """Complement of a set with this trace: type I if the set holds p, else type II."""
    rest = difference(ext.space.ambient, trace)
    return TypeI(rest) if has_p else TypeII(rest, (0,) * len(ext.filters))


def _open_as_declared(ext: Extension, u: ExtOpenSet) -> bool:
    """Open in the extension, and for type II the stored tails really fit.

    Fitting tails already reach every escape end, so what is left is the trace.
    """
    if isinstance(u, TypeII) and not declared_tails_hold(ext, u):
        return False
    return bool(trace_open_check(u.trace, ext.space.ambient))


# --------------------------------------------------------------------------
# density and subspace fidelity
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DensityCertificate:
    """Sampled neighborhoods of the extra point, all with nonempty traces."""

    samples: int
    neighborhoods: tuple[TypeII, ...]
    plain_opens: tuple[IntervalSet, ...]


def density_check(ext: Extension, samples: int = 100, seed: int = 0) -> DensityCertificate:
    """Certify that the base space is dense in the extension.

    Every sampled neighborhood of the extra point must trace to a nonempty
    open set (tails are nonempty), and every nonempty base open trivially
    meets the base.  The certificate is returned only once verify_density
    accepts it; a failure here is a bug, not a refusal.
    """
    from .sampling import random_open_in, random_p_neighborhood

    rng = random.Random(seed)
    neighborhoods = tuple(random_p_neighborhood(ext, rng) for _ in range(samples))
    plain = tuple(random_open_in(ext.space.ambient, rng) for _ in range(samples))
    cert = DensityCertificate(samples, neighborhoods, plain)
    if not verify_density(ext, cert):
        raise DensityFailure("density certificate failed its own verification")
    return cert


def verify_density(ext: Extension, cert: DensityCertificate) -> bool:
    for nb in cert.neighborhoods:
        if not nb.trace or not _open_as_declared(ext, nb):
            return False
    for v in cert.plain_opens:
        if v and not intersect(v, ext.space.ambient):
            return False
    return True


@dataclass(frozen=True, slots=True)
class FidelityCertificate:
    """Sampled opens showing the base is an honest subspace of the extension."""

    samples: int
    extension_opens: tuple[ExtOpenSet, ...]
    base_opens: tuple[IntervalSet, ...]


def subspace_fidelity(ext: Extension, samples: int = 100, seed: int = 0) -> FidelityCertificate:
    """Traces of extension opens are open below; base opens lift as type I.

    The certificate is returned only once verify_fidelity accepts it.
    """
    from .sampling import random_ext_open, random_open_in

    rng = random.Random(seed)
    ups = tuple(random_ext_open(ext, rng) for _ in range(samples))
    downs = tuple(random_open_in(ext.space.ambient, rng) for _ in range(samples))
    cert = FidelityCertificate(samples, ups, downs)
    if not verify_fidelity(ext, cert):
        raise FidelityFailure("fidelity certificate failed its own verification")
    return cert


def verify_fidelity(ext: Extension, cert: FidelityCertificate) -> bool:
    for u in cert.extension_opens:
        if not _open_as_declared(ext, u):
            return False
    for w in cert.base_opens:
        if not is_open_in_extension(ext, TypeI(w)):
            return False
    return True


# --------------------------------------------------------------------------
# connectedness
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ConnectednessStep:
    component: Component
    tail: IntervalSet  # representative filter element


@dataclass(frozen=True, slots=True)
class ConnectednessCertificate:
    """Schema: a clopen set holding the extra point contains a tail in every
    component, hence meets it, hence swallows it whole, hence is everything."""

    steps: tuple[ConnectednessStep, ...]


def connectedness_certificate(ext: Extension) -> ConnectednessCertificate:
    if not ext.filters:
        raise InvalidExtension("extension without components")
    return ConnectednessCertificate(
        tuple(ConnectednessStep(f.component, f.element(0)) for f in ext.filters)
    )


def verify_connectedness(ext: Extension, cert: ConnectednessCertificate) -> bool:
    """Replay each step as exact set algebra against its component's filter."""
    if len(cert.steps) != len(ext.filters):
        return False
    for step, flt in zip(cert.steps, ext.filters):
        if step.component != flt.component or step.tail != flt.element(0):
            return False
        c = step.component.as_set()
        if not step.tail or not step.tail.issubset(c) or not is_closed_in(step.tail, c):
            return False
        if _escape_piece(flt, step.tail) is None:
            return False
    return True


@dataclass(frozen=True, slots=True)
class IsTrivial:
    which: str  # "empty" or "whole"


@dataclass(frozen=True, slots=True)
class NotClopenEvidence:
    side: str  # "set" or "complement"
    reason: str  # "TraceNotOpen" or "MissingTail"
    component: int | None = None
    boundary: Fraction | None = None


def clopen_falsifier(ext: Extension, s: ExtOpenSet):
    """Concrete evidence that a candidate is not a proper nonempty clopen set.

    Returns IsTrivial for the empty set and the whole extension; otherwise a
    failing condition on the set or on its complement.  Finding neither would
    contradict connectedness of the extension and raises the bug signal.  A
    type-II candidate without one natural tail index per component is an
    input error.
    """
    if isinstance(s, TypeII) and not _well_shaped(ext, s):
        raise MalformedInterval(
            f"type-II candidate needs one natural tail index per component, got {s.tails}"
        )
    if isinstance(s, TypeI) and not s.trace:
        return IsTrivial("empty")
    if isinstance(s, TypeII) and s.trace == ext.space.ambient:
        return IsTrivial("whole")
    chk = is_open_in_extension(ext, s)
    if not chk:
        return NotClopenEvidence("set", chk.reason, chk.component, chk.boundary)
    chk = is_open_in_extension(ext, _complement_open(ext, isinstance(s, TypeII), s.trace))
    if not chk:
        return NotClopenEvidence("complement", chk.reason, chk.component, chk.boundary)
    raise InvalidExtension(f"found a proper nonempty clopen subset: {s}")


# --------------------------------------------------------------------------
# Hausdorff witnesses
# --------------------------------------------------------------------------


def _hausdorff_from_p(ext: Extension, z: Fraction) -> tuple[TypeII, TypeI]:
    """Open U around the extra point and V around z, disjoint.

    Pick the first filter element avoiding z, keep a symmetric open box of
    radius min(1, distance) around z, and give the extra point everything
    beyond the box toward the escape end plus all other components.
    """
    x = ext.space.ambient
    i = component_index(ext.space, z)
    flt = ext.filters[i]
    c_set = flt.component.as_set()
    start = flt.start(flt.avoid_index(z))  # first point of the escape block, past z
    delta = min(Fraction(1), (start - z) * flt.side)
    # z < edge <= start < end along the side, so (edge, end) lies in the component.
    edge = z + flt.side * delta
    v_trace = intersect(only(Interval(z - delta, z + delta)), c_set)
    tails = tuple(flt._index_past(edge, False) if j == i else 0 for j in range(len(ext.filters)))
    u_trace = union(difference(x, c_set), only(flt.toward_end(edge, False)))
    return TypeII(u_trace, tails), TypeI(v_trace)


def separate_points(space: Space, added: NamedPoint, from_added, y, z):
    """Disjoint opens around two distinct points of a space plus one added point;
    ``from_added(q)`` gives the pair (open around the added point, open around q)."""
    if y is added and z is added:
        raise EqualPoints(f"both points are {added}")
    if y is added:
        return from_added(Fraction(z))
    if z is added:
        u_added, v_y = from_added(Fraction(y))
        return v_y, u_added
    u, v = split_points(space, Fraction(y), Fraction(z))
    return TypeI(u), TypeI(v)


def verify_separated(contains, is_open, y, z, u, v) -> bool:
    """The four postconditions of a point separation: each open holds its point,
    both are open, the traces are disjoint, at most one holds the added point."""
    if not (contains(u, y) and contains(v, z)):
        return False
    if not (is_open(u) and is_open(v)):
        return False
    if intersect(u.trace, v.trace):
        return False
    return isinstance(u, TypeI) or isinstance(v, TypeI)


def hausdorff_witness(ext: Extension, y: ExtPoint, z: ExtPoint) -> tuple[ExtOpenSet, ExtOpenSet]:
    """Disjoint open neighborhoods of two distinct extension points."""
    return separate_points(ext.space, P, lambda q: _hausdorff_from_p(ext, q), y, z)


def verify_hausdorff(
    ext: Extension, y: ExtPoint, z: ExtPoint, u: ExtOpenSet, v: ExtOpenSet
) -> bool:
    """Independent check of the four witness postconditions."""
    return verify_separated(ext_contains, lambda w: _open_as_declared(ext, w), y, z, u, v)


# --------------------------------------------------------------------------
# normality witnesses
# --------------------------------------------------------------------------


def closed_in_extension(ext: Extension, f: ExtClosedSet) -> bool:
    """Closed means: the complement passes the extension openness check."""
    if not f.trace.issubset(ext.space.ambient):
        return False
    return bool(is_open_in_extension(ext, _complement_open(ext, f.has_p, f.trace)))


def normality_witness(
    ext: Extension, f: ExtClosedSet, g: ExtClosedSet
) -> tuple[ExtOpenSet, ExtOpenSet]:
    """Disjoint opens around two disjoint closed subsets of the extension.

    Without the extra point this delegates to the base-space separation.
    With the extra point in F, each component contributes the least tail
    avoiding G; the base separation of (F plus that tail) from G is traced
    back per component, and the extra point joins the F side.
    """
    if f.has_p and g.has_p:
        raise PInBoth("the extra point cannot be in both closed sets")
    for name, s in (("F", f), ("G", g)):
        if not closed_in_extension(ext, s):
            raise NotClosedInY(f"{name} is not closed in the extension: {s.trace}, p={s.has_p}")
    if intersect(f.trace, g.trace):
        raise NotDisjoint(f"{f.trace} meets {g.trace}")
    if g.has_p:
        v, u = normality_witness(ext, g, f)
        return u, v
    if not f.has_p:
        u0, v0 = separate_disjoint_closed(ext.space, f.trace, g.trace)
        return TypeI(u0), TypeI(v0)
    tails = least_valid_tails(ext, difference(ext.space.ambient, g.trace))
    if tails is None:
        raise InvalidExtension("no tail avoids G although G is closed")
    u_pieces, v_pieces = [], []
    slices = zip(component_slices(ext.space, f.trace), component_slices(ext.space, g.trace))
    for flt, n_c, (f_c, g_c) in zip(ext.filters, tails, slices):
        c = Space(flt.component.as_set())
        u_c, v_c = separate_disjoint_closed(c, union(f_c, flt.element(n_c)), g_c)
        u_pieces.extend(u_c.pieces)
        v_pieces.extend(v_c.pieces)
    return TypeII(normalize(u_pieces), tails), TypeI(normalize(v_pieces))


def verify_normality(
    ext: Extension, f: ExtClosedSet, g: ExtClosedSet, u: ExtOpenSet, v: ExtOpenSet
) -> bool:
    """Independent check: containment, disjointness, openness."""
    if not (_open_as_declared(ext, u) and _open_as_declared(ext, v)):
        return False
    if intersect(u.trace, v.trace):
        return False
    if isinstance(u, TypeII) and isinstance(v, TypeII):
        return False
    if f.has_p and not isinstance(u, TypeII):
        return False
    if g.has_p and not isinstance(v, TypeII):
        return False
    return f.trace.issubset(u.trace) and g.trace.issubset(v.trace)
