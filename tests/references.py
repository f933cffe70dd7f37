"""Plain references the tests judge the engine's sweeps against.

Each is the direct formula a sweep in ``src/onepoint`` replaced; no request
reaches them, so they live here rather than in the package.  Not collected
by pytest; tests import it as ``import references``.
"""

from onepoint import REALS, IntervalSet, components, intersect
from onepoint.intervals import NEG_INF, POS_INF, _hosts_or_raise, _mk_interval, _mk_set, is_finite


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
