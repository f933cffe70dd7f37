"""Plain references the tests judge the engine's sweeps against.

Each is the direct formula a sweep in ``src/onepoint`` replaced; no request
reaches them, so they live here rather than in the package.  Not collected
by pytest; tests import it as ``import references``.
"""

import re

from onepoint import REALS, IntervalSet, NotASubset, TypeI, TypeII, TypeInf, components, difference
from onepoint import FiniteSpace, ParseError, SizeTooLarge, intersect, union, validate_topology
from onepoint.connectify import _escape_end, _least_tail
from onepoint.finite import _LITERAL_RE, MAX_POINTS, _axiom_check, _space, to_preorder
from onepoint.intervals import NEG_INF, POS_INF, _ends_by, _eq, _hosts_or_raise, _intersect_pieces, _lt
from onepoint.intervals import _mk_interval, _mk_set, _starts_before, is_finite


def complement(a: IntervalSet) -> IntervalSet:
    """Complement within the whole line."""
    if not a.pieces:
        return REALS
    out = []
    first, last = a.pieces[0], a.pieces[-1]
    if is_finite(first.lo):
        out.append(_mk_interval(NEG_INF, first.lo, False, not first.lo_closed))
    for left, right in zip(a.pieces, a.pieces[1:]):
        out.append(_mk_interval(left.hi, right.lo, not left.hi_closed, not right.lo_closed))
    if is_finite(last.hi):
        out.append(_mk_interval(last.hi, POS_INF, not last.hi_closed, False))
    return _mk_set(tuple(out))


def closure_in(s: IntervalSet, x: IntervalSet) -> IntervalSet:
    """Closure of ``s`` in the subspace ``x``: the line closure traced on x."""
    _hosts_or_raise(s, x)
    return intersect(s.closure(), x)


def reference_slices(space, s):
    """s ∩ C for every component C, in line order: one intersection with
    each whole component."""
    return tuple(intersect(s, c.as_set()) for c in components(space))


def frontier(s: IntervalSet) -> tuple:
    """How far a greedy cover has advanced, as a Python tuple: the first
    piece's lower end, an included end first, and an empty set past every
    such key."""
    if not s:
        return (POS_INF, 2)
    iv = s.pieces[0]
    return (iv.lo, 0 if iv.lo_closed else 1)


def subcover(ce, cover) -> list:
    """`finite_subcover`'s greedy choosing by `frontier`: a member is kept
    when its key is larger.  The cover is the caller's to validate."""
    cover = list(cover)
    first = next(i for i, m in enumerate(cover) if isinstance(m, TypeInf))
    chosen = [first]
    remaining = difference(ce.space.ambient, cover[first].trace)
    while remaining:
        best_i, best_key, best_rest = None, frontier(remaining), remaining
        for i, m in enumerate(cover):
            if i in chosen:
                continue
            rest = difference(remaining, m.trace)
            key = frontier(rest)
            if key > best_key:
                best_i, best_key, best_rest = i, key, rest
        assert best_i is not None, "greedy sweep stalled"
        chosen.append(best_i)
        remaining = best_rest
    return [cover[i] for i in sorted(chosen)]


def merge_tagged(f: IntervalSet, g: IntervalSet) -> list:
    """The pieces of two disjoint sets in line order, each tagged 0 for f
    and 1 for g, merged by hand as `union` merges."""
    pf, pg = f.pieces, g.pieces
    tagged = []
    fi = gi = 0
    while fi < len(pf) and gi < len(pg):
        if _starts_before(pg[gi], pf[fi]):
            tagged.append((pg[gi], 1))
            gi += 1
        else:
            tagged.append((pf[fi], 0))
            fi += 1
    return tagged + [(piece, 0) for piece in pf[fi:]] + [(piece, 1) for piece in pg[gi:]]


def u_around_p(x: IntervalSet, i: int, block) -> IntervalSet:
    """The trace of U around the added point in two sweeps: the ambient
    without component i, joined with the escape block inside it."""
    return union(difference(x, _mk_set((x.pieces[i],))), _mk_set((block,)))


def escape_pieces(ext, trace):
    """The merge sweep of the trace against the components that the
    hosts-based `_escape_pieces` replaced: per component, in line order, the
    piece reaching its escape end, clipped to the component, or None."""
    pieces = trace.pieces
    n = len(pieces)
    i = 0
    for comp in ext.space.ambient.pieces:
        if i < n and pieces[i] is comp:
            yield comp
            i += 1
            continue
        side, end = _escape_end(comp)
        if side > 0:
            while i < n and _lt(pieces[i].hi, end):
                i += 1
            hit = i < n and _lt(pieces[i].lo, end)
        else:
            while i < n and not _lt(end, pieces[i].hi):
                i += 1
            hit = i < n and not _lt(end, pieces[i].lo)
        if not hit:
            yield None
            continue
        piece = pieces[i]
        ends_inside = _ends_by(piece, comp)
        if ends_inside:
            i += 1
        if not ends_inside or _starts_before(piece, comp):
            piece = _intersect_pieces(piece, comp)
        yield piece


def least_valid_tails(ext, trace):
    """Least tails over the merge sweep, or None if one is missing."""
    tails = []
    for i, (comp, piece) in enumerate(zip(ext.space.ambient.pieces, escape_pieces(ext, trace))):
        if piece is None:
            return None
        tails.append(0 if piece is comp else _least_tail(ext.filter_at(i), piece))
    return tuple(tails)


def trace_is_open(trace, x):
    """Openness of a trace in x by the per-piece formula of the old
    `not_interior_in`: no closed end of a piece lies inside its host."""
    try:
        hosts = _hosts_or_raise(trace, x)
    except NotASubset:
        return False
    for p, h in zip(trace.pieces, hosts):
        if p is h:
            continue
        if p.lo_closed and p.hi_closed and _eq(p.lo, p.hi):
            if _lt(h.lo, p.lo) or _lt(p.hi, h.hi):
                return False
            continue
        if (p.lo_closed and _lt(h.lo, p.lo)) or (p.hi_closed and _lt(p.hi, h.hi)):
            return False
    return True


def open_as_declared(ext, u):
    """The verifier the one-sweep `_open_as_declared` replaced, for opens
    with a set as trace and a tuple of integers as tails: the declared
    tails against the least ones over the merge sweep, then the trace's
    openness, in two sweeps of the trace."""
    if not isinstance(u, (TypeI, TypeII)):
        return False
    if isinstance(u, TypeII):
        least = least_valid_tails(ext, u.trace)
        if least is None or len(u.tails) != len(least):
            return False
        if not all(n >= m for n, m in zip(u.tails, least)):
            return False
    return trace_is_open(u.trace, ext.space.ambient)


def _connected(rows):
    """The connectedness test the one-component count replaced: each row is
    connected, its point lying below the rest of it, so rows that meet lie
    in one component; the space is connected when the rows merged from the
    first reach every point."""
    reach = rows[0] if rows else 0
    grown = True
    while grown:
        grown = False
        for r in rows:
            if r & reach and r & ~reach:
                reach |= r
                grown = True
    return reach == (1 << len(rows)) - 1


def search_by_rows(x, axiom):
    """The connectification search that reading connectedness off x's
    components replaced: every (A, B) candidate's rows built, merged by
    `_connected`, and the opens of each found extension built from its rows
    by `_space`."""
    satisfies = _axiom_check(axiom)
    up = to_preorder(x)
    p_bit = 1 << x.size
    found = []
    for a in x.opens - {0}:
        below_a = sum(1 << i for i, u in enumerate(up) if (a | u) == u)
        for o in x.opens:
            b = x.full ^ o
            if b & ~below_a:
                continue
            rows = tuple(u | p_bit if (b >> i) & 1 else u for i, u in enumerate(up))
            rows += (a | p_bit,)
            if _connected(rows) and satisfies(rows):
                found.append(rows)
    found.sort()
    return [_space(rows) for rows in found]


def parse_literal_by_tokens(text):
    """The literal reader the point table replaced: each group found again
    by a second regex, and each token converted, bounded and shifted.  Its
    errors, their messages and their order are the engine's."""
    flat = "".join(text.split())
    if not _LITERAL_RE.match(flat):
        raise ParseError(f"bad topology literal: {text!r}")
    masks = []
    too_large = False
    for group in re.findall(r"\{([0-9,]*)\}", flat):
        mask = 0
        if group:
            for tok in group.split(","):
                if not tok:
                    raise ParseError(f"bad open set in literal: {{{group}}}")
                # Length first, so a long token is never converted or shifted.
                digits = tok.lstrip("0") or "0"
                if len(digits) > len(str(MAX_POINTS)) or int(digits) >= MAX_POINTS:
                    too_large = True
                else:
                    mask |= 1 << int(digits)
        masks.append(mask)
    if too_large:
        raise SizeTooLarge(f"finite spaces handle at most {MAX_POINTS} points")
    n = max(masks).bit_length()
    try:
        space = FiniteSpace(n, frozenset(masks))
    except ParseError as exc:
        raise ParseError(f"not a topology: {text!r} ({exc})") from exc
    if not validate_topology(n, space.opens):
        raise ParseError(f"family is not closed under union/intersection: {text!r}")
    return space
