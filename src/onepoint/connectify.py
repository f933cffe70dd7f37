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

import random
from fractions import Fraction
from math import gcd

from .errors import (
    CompactComponent,
    DensityFailure,
    EqualPoints,
    FidelityFailure,
    InvalidExtension,
    MalformedInterval,
    NotClosed,
    NotClosedInY,
    NotDisjoint,
    PInBoth,
    PointOutsideComponent,
)
from .frozen import Frozen
from .intervals import (
    Interval,
    IntervalSet,
    Value,
    _closed_in_host,
    _ends_before,
    _ends_by,
    _eq,
    _frac,
    _gallop,
    _hosts,
    _intersect_pieces,
    _mk_interval,
    _mk_set,
    _not_interior,
    _open_in_host,
    _plus,
    _starts_before,
    _union_all,
    as_point,
    difference,
    inner_point,
    intersect,
    is_finite,
    pick_point,
    union,
)
from .space import Component, Space, components, has_compact_component, is_compact
from .space import component_index, separate_disjoint_closed, split_points


# --------------------------------------------------------------------------
# escape filters
# --------------------------------------------------------------------------


class EscapeFilter(Frozen):
    """Descending chain of closed escape sets along one non-compact component.

    The chain runs toward ``end`` on one ``side`` of the component: the
    right end (``side`` +1) unless it is included, else the left end
    (``side`` -1).  ``end`` is that end as a value of the extended line, an
    infinity or the excluded finite endpoint, and ``anchor`` is the
    component's inner point.  element(n) is the block from ``start(n)`` to
    ``end``, with ``start(n)`` included, intersected with the component:
    ``start(n)`` is ``anchor + n`` (``anchor - n`` on the left) toward an
    infinite end and ``end - (end - anchor)/2^n`` toward a finite one.  A
    compact component has no escape end and raises ``CompactComponent``.
    """

    # side, anchor and end are worked out once: every sweep reads them
    __slots__ = ("component", "side", "anchor", "end")

    def __init__(self, component: Component) -> None:
        # A non-compact piece is not a single point, so the inner point lies
        # strictly inside.
        p = component.piece
        if is_compact(component):
            raise CompactComponent(component)
        side, end = _escape_end(p)
        _set_component(self, component)
        _set_side(self, side)
        _set_anchor(self, inner_point(p.lo, p.hi))
        _set_end(self, end)

    def start(self, n: int) -> Fraction:
        """The near endpoint of element(n), the one away from the escape end."""
        if n == 0:
            return self.anchor  # both formulas give it; a rebuilt element shares its ends
        return _frac(*self._start_ratio(n))

    def _start_ratio(self, n: int) -> tuple[int, int]:
        """start(n) as integers num/den, den > 0, not reduced: a caller that
        moves start(n) further reduces once."""
        an, ad = self.anchor._numerator, self.anchor._denominator
        if not is_finite(self.end):
            return an + self.side * n * ad, ad
        # end - s/2^n with s = end - anchor = sn/sd, over one denominator.
        en, ed = self.end._numerator, self.end._denominator
        sn, sd = en * ad - an * ed, ed * ad
        return (en * sd << n) - sn * ed, ed * sd << n

    def toward_end(self, near: Fraction, closed: bool) -> Interval:
        """The interval from a near point to the escape end, which it excludes;
        ``near`` must lie strictly before the end on the filter's side."""
        if self.side > 0:
            return _mk_interval(near, self.end, closed, False)
        return _mk_interval(self.end, near, False, closed)

    def element(self, n: int) -> IntervalSet:
        if n < 0:
            raise ValueError("filter indices are naturals")
        # start(n) lies inside the component, which runs open to the escape
        # end, so the block from start(n) to the end is already inside it.
        return _mk_set((self.toward_end(self.start(n), True),))

    def _index_past(self, q: Fraction, included: bool) -> int:
        """Least n whose start(n) lies past q toward the end, or at q if included.

        For an infinite end this is a floor or a ceiling.  For a finite
        end, start(n) is past q exactly when span/2^n < gap, with span the
        distance from anchor to end and gap the distance from q to end; the
        least such n comes from the bit lengths of num/den = span/gap, in any
        positive integer form: they fix n up to one step, and one comparison
        settles it.
        """
        an, ad = self.anchor._numerator, self.anchor._denominator
        qn, qd = q._numerator, q._denominator
        if not is_finite(self.end):
            # need = (q - anchor) toward the end, as num/den with den > 0
            num, den = self.side * (qn * ad - an * qd), qd * ad
            return max(0, -(-num // den) if included else num // den + 1)
        en, ed = self.end._numerator, self.end._denominator
        num = self.side * (en * ad - an * ed) * qd
        den = self.side * (en * qd - qn * ed) * ad
        n = max(0, num.bit_length() - den.bit_length())
        scaled = den << n
        return n + 1 if scaled < num or (scaled == num and not included) else n

    def avoid_index(self, z) -> int:
        """Least n with z outside element(n)."""
        z = as_point(z)
        if not self.component.piece.contains(z):
            raise PointOutsideComponent(f"{z} is not in {self.component.piece}")
        return self._index_past(z, False)


# See intervals._set_lo.
_set_component, _set_side, _set_anchor, _set_end = EscapeFilter._setters


def _escape_end(piece: Interval) -> tuple[int, Value]:
    """The side and end a filter on a non-compact piece escapes toward: the
    right end unless it is included, else the left end.  A non-compact piece
    has an excluded end, and an infinite end is never included, so an
    included right end leaves the left end open."""
    if piece.hi_closed:
        return -1, piece.lo
    return 1, piece.hi


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


class Extension(Frozen):
    """The space plus the extra point, one escape filter per component; a
    space with a compact component raises ``CompactComponent``.

    The filters are a function of the space, built on first read: equality
    and hashing read the space alone.  `filter_at` gives one filter without
    building the others."""

    __slots__ = ("space", "_filters")

    def __init__(self, space: Space) -> None:
        comp = has_compact_component(space)
        if comp is not None:
            raise CompactComponent(comp)
        super().__init__(space)

    @property
    def filters(self) -> tuple[EscapeFilter, ...]:
        filters = self._filters
        if filters is None:
            filters = tuple(map(EscapeFilter, components(self.space)))
            _set_filters(self, filters)
        return filters

    def filter_at(self, i: int) -> EscapeFilter:
        """The filter of component i: read from `filters` once those are
        built, else built alone and not kept."""
        filters = self._filters
        if filters is None:
            return EscapeFilter(Component(self.space.ambient.pieces[i], i))
        return filters[i]

    def __repr__(self) -> str:
        return f"Extension(space={self.space!r}, filters={self.filters!r})"

    def whole_open(self) -> TypeII:
        return TypeII(self.space.ambient, (0,) * len(self.space.ambient.pieces))


# See intervals._set_lo; only the `filters` getter writes the slot.
_set_filters = Extension._filters.__set__


class TypeI(Frozen):
    """Extension-open set not containing the extra point: a plain trace."""

    __slots__ = ("trace",)


class TypeII(Frozen):
    """Extension-open set containing the extra point.

    For every component the declared tail index witnesses that a whole
    filter tail sits inside the trace.
    """

    __slots__ = ("trace", "tails")


ExtOpenSet = TypeI | TypeII


class ExtClosedSet(Frozen):
    """Closed subset of the extension: optional extra point plus a trace."""

    __slots__ = ("has_p", "trace")


class Connectifiable(Frozen):
    __slots__ = ("extension",)


class Refused(Frozen):
    __slots__ = ("witness",)


Verdict = Connectifiable | Refused


def check_connectifiable(space: Space) -> Verdict:
    """Connectifiable iff no component is compact.

    A compact component would stay clopen and proper in any one-point
    Hausdorff extension, so the first one, which `Extension` refuses, is
    returned as the refusal witness.
    """
    try:
        return Connectifiable(Extension(space))
    except CompactComponent as refusal:
        return Refused(refusal.component)


def ext_contains(u: ExtOpenSet, pt: ExtPoint) -> bool:
    if pt is P:
        return isinstance(u, TypeII)
    return pt in u.trace


# --------------------------------------------------------------------------
# openness in the extension
# --------------------------------------------------------------------------


class OpenCheck(Frozen):
    """Outcome of an openness check: open exactly when no reason is given."""

    __slots__ = ("reason", "component", "boundary")

    def __init__(
        self,
        reason: str | None = None,  # "TraceNotOpen", "MissingTail" or "RemainderNotCompact"
        component: int | None = None,
        boundary: Fraction | None = None,  # a point of the trace where TraceNotOpen fails
    ) -> None:
        super().__init__(reason, component, boundary)

    def __bool__(self) -> bool:
        return self.reason is None


OPEN_OK = OpenCheck()


def trace_open_check(trace: IntervalSet, x: IntervalSet) -> OpenCheck:
    """Openness of a trace in x; a failure carries a trace point outside x or
    not interior in it as its boundary."""
    return _trace_check(trace, x, _hosts(trace, x))


def _trace_check(trace: IntervalSet, x: IntervalSet, hosts) -> OpenCheck:
    """`trace_open_check` given the trace's hosts in x (`intervals._hosts`),
    None when the trace is no subset of x; only a failure builds its boundary."""
    if hosts is None:
        return OpenCheck("TraceNotOpen", boundary=pick_point(difference(trace, x)))
    if all(map(_open_in_host, trace.pieces, hosts)):
        return OPEN_OK
    return OpenCheck("TraceNotOpen", boundary=pick_point(_not_interior(trace.pieces, hosts)))


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


def _escape_pieces(ext: Extension, trace: IntervalSet, hosts=None) -> list[Interval | None]:
    """Per component, in line order, the piece of a trace reaching its escape end, or None.

    ``hosts`` are the trace's hosts in X (`intervals._hosts`) when the
    caller has them; a trace reaching outside X is first cut to X, where the
    filters lie.  The pieces a component hosts come as one run, and only the
    last of them (the first, for a left end) can reach its escape end, given
    by `_escape_end`: no filter is built.  A component's own piece is its
    whole run.
    """
    x = ext.space.ambient
    if hosts is None:
        hosts = _hosts(trace, x)
        if hosts is None:
            trace = intersect(trace, x)
            hosts = _hosts(trace, x)
    pieces = trace.pieces
    n = len(pieces)
    out = []
    k = 0
    for comp in x.pieces:
        if k < n and pieces[k] is comp:
            out.append(comp)
            k += 1
            continue
        if k == n or hosts[k] is not comp:
            out.append(None)
            continue
        r = k + 1
        while r < n and hosts[r] is comp:
            r += 1
        side, end = _escape_end(comp)
        if side > 0:
            piece = pieces[r - 1]
            out.append(piece if _eq(piece.hi, end) else None)
        else:
            piece = pieces[k]
            out.append(piece if _eq(piece.lo, end) else None)
        k = r
    return out


def is_open_in_extension(ext: Extension, u: ExtOpenSet) -> OpenCheck:
    """Openness of an extension set, decided structurally.

    Type I needs an open trace.  Type II additionally needs the trace to run
    all the way to the escape end of every component: that is exactly the
    existence of a contained filter tail.  A type-II set without one natural
    tail index per component is an input error.  One `_hosts` sweep of the
    trace serves both checks.
    """
    if isinstance(u, TypeII):
        _check_tails_shape(ext, u)
    x = ext.space.ambient
    hosts = _hosts(u.trace, x)
    chk = _trace_check(u.trace, x, hosts)
    if not chk or isinstance(u, TypeI):
        return chk
    for i, piece in enumerate(_escape_pieces(ext, u.trace, hosts)):
        if piece is None:
            return OpenCheck("MissingTail", i)
    return OPEN_OK


def _check_tails_shape(ext: Extension, u: TypeII) -> None:
    """Tails that fit least tails of 0; else an input error (exit 2), not an engine bug."""
    if not _tails_fit(u.tails, (0,) * len(ext.space.ambient.pieces)):
        raise MalformedInterval(
            f"type-II set needs one natural tail index per component, got {u.tails}"
        )


def declared_tails_hold(ext: Extension, u: TypeII) -> bool:
    """The stored indices really witness tail containment (the type invariant).

    The chain descends, so a declared tail fits exactly when it is at least
    the least one that fits; no element is built, however large the index.
    """
    return _tails_fit(u.tails, least_valid_tails(ext, u.trace))


def _tails_fit(tails, least: tuple[int, ...] | None) -> bool:
    """Declared tails, a tuple of naturals, each at least the least tail of
    its component; a shape that is not such a tuple never fits."""
    if least is None or type(tails) is not tuple or len(tails) != len(least):
        return False
    return all(isinstance(t, int) and t >= m for t, m in zip(tails, least))


def least_valid_tails(ext: Extension, trace: IntervalSet) -> tuple[int, ...] | None:
    """Smallest witnessing tail indices for a trace, or None if one is missing."""
    return _least_tails(ext, _escape_pieces(ext, trace))


def _least_tails(ext: Extension, escapes: list[Interval | None]) -> tuple[int, ...] | None:
    """The least tail of each component from its escape piece, or None if
    one is missing.

    A component's own piece takes 0, as element(0) starts at the anchor
    inside it; only a component whose escape piece is cut short builds its
    filter."""
    tails = []
    for i, (comp, piece) in enumerate(zip(ext.space.ambient.pieces, escapes)):
        if piece is None:
            return None
        tails.append(0 if piece is comp else _least_tail(ext.filter_at(i), piece))
    return tuple(tails)


def intersect_open(ext: Extension, u: ExtOpenSet, v: ExtOpenSet) -> ExtOpenSet:
    """Intersection in the extension topology.

    Two type-II sets meet in a type-II set: the tails are nested chains, so
    the larger index witnesses the intersection.  A type-II argument without
    one natural tail index per component is an input error.
    """
    for w in (u, v):
        if isinstance(w, TypeII):
            _check_tails_shape(ext, w)
    trace = intersect(u.trace, v.trace)
    if isinstance(u, TypeII) and isinstance(v, TypeII):
        return TypeII(trace, tuple(max(a, b) for a, b in zip(u.tails, v.tails)))
    return TypeI(trace)


def union_open(ext: Extension, opens) -> ExtOpenSet:
    """Union in the extension topology; type II wins with the smaller tails.

    A type-II argument without one natural tail index per component is an
    input error.
    """
    opens = list(opens)
    tail_rows = []
    for o in opens:
        if isinstance(o, TypeII):
            _check_tails_shape(ext, o)
            tail_rows.append(o.tails)
    trace = _union_all(o.trace for o in opens)
    if tail_rows:
        return TypeII(trace, tuple(min(col) for col in zip(*tail_rows)))
    return TypeI(trace)


def _complement_open(ext: Extension, has_p: bool, trace: IntervalSet) -> ExtOpenSet:
    """Complement of a set with this trace: type I if the set holds p, else type II."""
    rest = difference(ext.space.ambient, trace)
    return TypeI(rest) if has_p else TypeII(rest, (0,) * len(ext.space.ambient.pieces))


def _open_as_declared(ext: Extension, u: ExtOpenSet) -> bool:
    """An extension open, type I or II, and for type II the stored tails really fit.

    One `_hosts` sweep gives each trace piece its component, for the trace
    check (`_trace_check`) and for the tails, which fit when each is at
    least the least tail of its component's escape piece.  Fitting tails
    reach every escape end.  An open whose trace is not a set, or whose
    tails are not a tuple of naturals, is not one.
    """
    if not isinstance(u, (TypeI, TypeII)):
        return False
    trace = u.trace
    if not isinstance(trace, IntervalSet):
        return False
    x = ext.space.ambient
    hosts = _hosts(trace, x)
    if not _trace_check(trace, x, hosts):
        return False
    if isinstance(u, TypeI):
        return True
    return _tails_fit(u.tails, _least_tails(ext, _escape_pieces(ext, trace, hosts)))


# --------------------------------------------------------------------------
# density and subspace fidelity
# --------------------------------------------------------------------------


class DensityCertificate(Frozen):
    """Sampled neighborhoods of the extra point, all with nonempty traces.

    Every point of the base lies in the base, so density is a claim about
    the neighborhoods of the extra point alone."""

    __slots__ = ("neighborhoods",)


def density_check(ext: Extension, samples: int = 100, seed: int = 0) -> DensityCertificate:
    """Certify that the base space is dense in the extension.

    Every sampled neighborhood of the extra point must trace to a nonempty
    open set (tails are nonempty).  The certificate is returned only once
    verify_density accepts it; a failure here is a bug, not a refusal.
    """
    from .sampling import random_p_neighborhood

    if samples < 1:
        raise ValueError("a certificate needs at least one sample")
    rng = random.Random(seed)
    neighborhoods = tuple(random_p_neighborhood(ext, rng) for _ in range(samples))
    cert = DensityCertificate(neighborhoods)
    if not verify_density(ext, cert):
        raise DensityFailure("density certificate failed its own verification")
    return cert


def verify_density(ext: Extension, cert: DensityCertificate) -> bool:
    if not cert.neighborhoods:
        return False
    for nb in cert.neighborhoods:
        if not isinstance(nb, TypeII) or not nb.trace or not _open_as_declared(ext, nb):
            return False
    return True


class FidelityCertificate(Frozen):
    """Sampled opens showing the base is an honest subspace of the extension:
    one extension open and one base open per sample."""

    __slots__ = ("extension_opens", "base_opens")


def subspace_fidelity(ext: Extension, samples: int = 100, seed: int = 0) -> FidelityCertificate:
    """Traces of extension opens are open below; base opens lift as type I.

    The certificate is returned only once verify_fidelity accepts it.
    """
    from .sampling import random_ext_open, random_open_in

    if samples < 1:
        raise ValueError("a certificate needs at least one sample")
    rng = random.Random(seed)
    ups = tuple(random_ext_open(ext, rng) for _ in range(samples))
    downs = tuple(random_open_in(ext.space.ambient, rng) for _ in range(samples))
    cert = FidelityCertificate(ups, downs)
    if not verify_fidelity(ext, cert):
        raise FidelityFailure("fidelity certificate failed its own verification")
    return cert


def verify_fidelity(ext: Extension, cert: FidelityCertificate) -> bool:
    if not cert.extension_opens or len(cert.extension_opens) != len(cert.base_opens):
        return False
    for u in cert.extension_opens:
        if not _open_as_declared(ext, u):
            return False
    for w in cert.base_opens:
        # a base open that is not a set is a trace `_open_as_declared` refuses
        if not _open_as_declared(ext, TypeI(w)):
            return False
    return True


# --------------------------------------------------------------------------
# connectedness
# --------------------------------------------------------------------------


class ConnectednessStep(Frozen):
    __slots__ = ("component", "tail")  # tail: a representative filter element


class ConnectednessCertificate(Frozen):
    """Schema: a clopen set holding the extra point contains a tail in every
    component, hence meets it, hence swallows it whole, hence is everything."""

    __slots__ = ("steps",)


def connectedness_certificate(ext: Extension) -> ConnectednessCertificate:
    if not ext.filters:
        raise InvalidExtension("extension without components")
    return ConnectednessCertificate(
        tuple(ConnectednessStep(f.component, f.element(0)) for f in ext.filters)
    )


def verify_connectedness(ext: Extension, cert: ConnectednessCertificate) -> bool:
    """Replay each step against its component's filter: the tail is the
    filter's element 0, each of its pieces lies inside the component's
    piece and is closed in it, decided on their endpoints, and it has a
    piece reaching the filter's escape end, so it is nonempty."""
    if len(cert.steps) != len(ext.filters):
        return False
    for step, flt in zip(cert.steps, ext.filters):
        comp = flt.component
        if step.component is not comp and step.component != comp:
            return False
        tail = step.tail
        if tail != flt.element(0):
            return False
        c = comp.piece
        for t in tail.pieces:
            if _starts_before(t, c) or not _ends_by(t, c) or not _closed_in_host(t, c):
                return False
        if _escape_piece(flt, tail) is None:
            return False
    return True


class IsTrivial(Frozen):
    __slots__ = ("which",)  # "empty" or "whole"


class NotClopenEvidence(Frozen):
    __slots__ = ("side", "check")  # side: "set" or "complement"


def clopen_falsifier(ext: Extension, s: ExtOpenSet):
    """Concrete evidence that a candidate is not a proper nonempty clopen set.

    Returns IsTrivial for the empty set and the whole extension; otherwise a
    failing condition on the set or on its complement.  Finding neither would
    contradict connectedness of the extension and raises the bug signal.  A
    type-II candidate without one natural tail index per component is an
    input error, which the openness check, asked first, raises.
    """
    chk = is_open_in_extension(ext, s)
    if isinstance(s, TypeI) and not s.trace:
        return IsTrivial("empty")
    if isinstance(s, TypeII) and s.trace == ext.space.ambient:
        return IsTrivial("whole")
    if not chk:
        return NotClopenEvidence("set", chk)
    chk = is_open_in_extension(ext, _complement_open(ext, isinstance(s, TypeII), s.trace))
    if not chk:
        return NotClopenEvidence("complement", chk)
    raise InvalidExtension(f"found a proper nonempty clopen subset: {s}")


# --------------------------------------------------------------------------
# Hausdorff witnesses
# --------------------------------------------------------------------------


def _hausdorff_from_p(ext: Extension, z: Fraction) -> tuple[TypeII, TypeI]:
    """Open U around the extra point and V around z, disjoint.

    Pick the first filter element avoiding z, keep a symmetric open box of
    radius min(1, distance) around z, and give the extra point everything
    beyond the box toward the escape end plus all other components.  Only
    z's filter is built, and the box comes in lowest terms from z's and the
    element's own integers, so its arithmetic is the size of its answer.
    """
    x = ext.space.ambient
    i = component_index(ext.space, z)
    flt = ext.filter_at(i)
    comp = x.pieces[i]
    n = flt.avoid_index(z)
    start = flt.start(n)  # first point of the escape block, past z
    side = flt.side
    zn, zd = z._numerator, z._denominator
    sn, sd = start._numerator, start._denominator
    if side * (sn * zd - zn * sd) >= sd * zd:
        lo, hi = _plus(z, -1, 1), _plus(z, 1, 1)  # radius 1
        edge = hi if side > 0 else lo
        tail = flt._index_past(edge, False)
    else:
        # The box runs from start to its mirror 2z - start.  Reduce 2z first,
        # then subtract as Knuth 4.5.1 does: the gcd of the denominators
        # first, so no product is wider than the two denominators.
        tn, td = (zn, zd >> 1) if zd & 1 == 0 else (zn << 1, zd)
        d1 = gcd(td, sd)
        t = tn * (sd // d1) - sn * (td // d1)
        d2 = gcd(t, d1)
        mirror = _frac(t // d2, (td // d1) * (sd // d2))
        lo, hi = (mirror, start) if side > 0 else (start, mirror)
        edge, tail = start, n + 1  # start(n + 1) is the first start past start(n)
    # z < edge <= start < end along the side, so (edge, end) lies in the component.
    v_trace = _mk_set((_intersect_pieces(_mk_interval(lo, hi, False, False), comp),))
    tails = [0] * len(x.pieces)
    tails[i] = tail
    # The block lies inside z's component, which gaps part from its neighbours,
    # so the splice is canonical and keeps every other component's own piece.
    u_trace = _mk_set(x.pieces[:i] + (flt.toward_end(edge, False),) + x.pieces[i + 1 :])
    return TypeII(u_trace, tuple(tails)), TypeI(v_trace)


def separate_points(space: Space, added: NamedPoint, from_added, y, z):
    """Disjoint opens around two distinct points of a space plus one added point;
    ``from_added(q)`` gives the pair (open around the added point, open around q)."""
    if y is added and z is added:
        raise EqualPoints(f"both points are {added}")
    if y is added:
        return from_added(as_point(z))
    if z is added:
        u_added, v_y = from_added(as_point(y))
        return v_y, u_added
    u, v = split_points(space, as_point(y), as_point(z))
    return TypeI(u), TypeI(v)


def verify_separated(contains, is_open, y, z, u, v) -> bool:
    """The four postconditions of a point separation: each open holds its point,
    both are open, the traces are disjoint, at most one holds the added point.
    Openness comes first: it refuses an open that is not one, whose trace
    membership could not be asked."""
    if not (is_open(u) and is_open(v)):
        return False
    if not (contains(u, y) and contains(v, z)):
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
    swapped = g.has_p
    if swapped:
        f, g = g, f  # build with p on F's side, then swap the pair back
    if not f.has_p:
        u0, v0 = separate_disjoint_closed(ext.space, f.trace, g.trace)
        return TypeI(u0), TypeI(v0)
    x = ext.space.ambient
    tails = least_valid_tails(ext, difference(x, g.trace))
    if tails is None:
        raise InvalidExtension("no tail avoids G although G is closed")
    # F and G lie in X, so each of their pieces lies inside one component:
    # the components G meets come from G's pieces, and F is sliced there.
    pc, pf, pg = x.pieces, f.trace.pieces, g.trace.pieces
    nc, nf, ng = len(pc), len(pf), len(pg)
    u_pieces, v_pieces = [], []
    ci = fi = gi = 0
    while gi < ng:
        i = _gallop(pc, ci, nc, _ends_before, pg[gi])
        u_pieces.extend(pc[ci:i])  # G misses these components: U takes them whole
        comp, ci = pc[i], i + 1
        run = _gallop(pg, gi + 1, ng, _ends_by, comp)
        g_c = _mk_set(pg[gi:run])
        gi = run
        fi = _gallop(pf, fi, nf, _ends_before, comp)
        run = _gallop(pf, fi, nf, _ends_by, comp)
        f_c = _mk_set(pf[fi:run])
        fi = run
        flt, n_c = ext.filter_at(i), tails[i]
        # Closed and disjoint when F and G are and the tail avoids G, so a
        # refusal here is the engine's fault, not the input's.
        c = Space(_mk_set((comp,)))
        try:
            u_c, v_c = separate_disjoint_closed(c, union(f_c, flt.element(n_c)), g_c)
        except (NotClosed, NotDisjoint) as exc:
            raise InvalidExtension(f"F with tail {n_c} in {flt.component}: {exc}") from exc
        u_pieces.extend(u_c.pieces)
        v_pieces.extend(v_c.pieces)
    u_pieces.extend(pc[ci:])
    # Each component's pieces come in line order, inside it, and the
    # ambient's gaps part the pieces of different components: no normalize.
    u, v = TypeII(_mk_set(tuple(u_pieces)), tails), TypeI(_mk_set(tuple(v_pieces)))
    return (v, u) if swapped else (u, v)


def verify_normality(
    ext: Extension, f: ExtClosedSet, g: ExtClosedSet, u: ExtOpenSet, v: ExtOpenSet
) -> bool:
    """Independent check: containment, disjointness, openness."""
    if not (_open_as_declared(ext, u) and _open_as_declared(ext, v)):
        return False
    # Two opens type II as declared each hold a tail of every filter, tails
    # of one filter meet, and a space has a component: so this test also
    # refuses a pair of type-II opens.
    if intersect(u.trace, v.trace):
        return False
    if f.has_p and not isinstance(u, TypeII):
        return False
    if g.has_p and not isinstance(v, TypeII):
        return False
    return f.trace.issubset(u.trace) and g.trace.issubset(v.trace)
