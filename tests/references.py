"""Plain references the tests judge the engine's sweeps against.

Each is the direct formula a sweep in ``src/onepoint`` replaced; no request
reaches them, so they live here rather than in the package.  Not collected
by pytest; tests import it as ``import references``.
"""

from onepoint import REALS, IntervalSet, TypeInf, components, difference, intersect, union
from onepoint.intervals import NEG_INF, POS_INF, _hosts_or_raise, _mk_interval, _mk_set, _starts_before
from onepoint.intervals import is_finite


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
