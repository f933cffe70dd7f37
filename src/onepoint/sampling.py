"""Deterministic random generators for spaces, sets, and extension data.

Everything is driven by an explicit `random.Random`, so identical seeds give
identical objects; the selftest and the golden record checks rely on that.
Every draw goes through `rng.random()` or `rng.getrandbits` alone: integer
draws are `_randint`, written as CPython 3.11 draws `randint`, so the stream
does not rest on how another interpreter version implements `randrange`.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .connectify import (
    EscapeFilter,
    ExtClosedSet,
    Extension,
    TypeI,
    TypeII,
    intersect_open,
    union_open,
)
from .intervals import (
    Interval,
    IntervalSet,
    NEG_INF,
    POS_INF,
    _eq,
    _frac,
    _lt,
    _mk_interval,
    _mk_set,
    _plus,
    difference,
    intersect,
    is_finite,
    normalize,
    parse_set,
    union,
)
from .space import Space


def _randint(rng: random.Random, a: int, b: int) -> int:
    """A uniform integer from a to b, both included: `rng.randint(a, b)`.

    Drawn as CPython 3.11's `_randbelow_with_getrandbits` draws it: as many
    bits as the width has, redrawn until below the width.  The call skips
    `randint`'s and `randrange`'s argument checks, and takes the same bits
    from the stream.
    """
    n = b - a + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


def rand_fraction(rng: random.Random, lo: int = -8, hi: int = 8, max_den: int = 6) -> Fraction:
    den = _randint(rng, 1, max_den)
    return _frac(_randint(rng, lo * den, hi * den), den)


def random_space(rng: random.Random, allow_compact: bool = True) -> Space:
    """A space with 1 to 5 pieces of mixed endpoint kinds."""
    k = _randint(rng, 1, 5)
    pieces: list[Interval] = []
    cursor = _frac(_randint(rng, -12, -6), 1)
    for i in range(k):
        last = i == k - 1
        if i == 0 and rng.random() < 0.2:
            pieces.append(_mk_interval(NEG_INF, cursor, False, rng.random() < 0.5))
        else:
            if (
                pieces
                and is_finite(pieces[-1].hi)
                and not pieces[-1].hi_closed
                and rng.random() < 0.25
            ):
                lo, lo_closed = pieces[-1].hi, False  # single missing point between pieces
            else:
                lo = _plus(cursor, _randint(rng, 1, 8), _randint(rng, 1, 3))
                lo_closed = rng.random() < 0.5
            if last and rng.random() < 0.2:
                pieces.append(_mk_interval(lo, POS_INF, lo_closed, False))
            elif allow_compact and lo_closed and rng.random() < 0.12:
                pieces.append(_mk_interval(lo, lo, True, True))
            else:
                hi = _plus(lo, _randint(rng, 1, 10), _randint(rng, 1, 3))
                hi_closed = rng.random() < 0.5
                if not allow_compact and lo_closed and hi_closed:
                    hi_closed = False
                pieces.append(_mk_interval(lo, hi, lo_closed, hi_closed))
        if not is_finite(pieces[-1].hi):
            break
        cursor = pieces[-1].hi
    return Space(IntervalSet(pieces))  # the checked constructor: the pieces are canonical


def random_real_open(rng: random.Random) -> IntervalSet:
    """A random open subset of the line (possibly empty)."""
    parts: list[Interval] = []
    for _ in range(_randint(rng, 0, 3)):
        roll = rng.random()
        if roll < 0.12:
            parts.append(_mk_interval(NEG_INF, rand_fraction(rng), False, False))
        elif roll < 0.24:
            parts.append(_mk_interval(rand_fraction(rng), POS_INF, False, False))
        else:
            a = rand_fraction(rng)
            b = _plus(a, _randint(rng, 1, 20), _randint(rng, 1, 4))
            parts.append(_mk_interval(a, b, False, False))
    # No parts, or one, are canonical as drawn.
    return _mk_set(tuple(parts)) if len(parts) < 2 else normalize(parts)


def random_open_in(x: IntervalSet, rng: random.Random) -> IntervalSet:
    return intersect(random_real_open(rng), x)


def random_closed_in(x: IntervalSet, rng: random.Random) -> IntervalSet:
    return difference(x, random_open_in(x, rng))


def random_point_in(s: IntervalSet, rng: random.Random) -> Fraction:
    """A rational inside a nonempty set; sometimes an included endpoint."""
    if not s.pieces:
        raise ValueError("cannot sample a point from the empty set")
    iv = s.pieces[_randint(rng, 0, len(s.pieces) - 1)]
    if iv.degenerate:
        return iv.lo
    if rng.random() < 0.15 and is_finite(iv.lo) and iv.lo_closed:
        return iv.lo
    if rng.random() < 0.15 and is_finite(iv.hi) and iv.hi_closed:
        return iv.hi
    if is_finite(iv.lo) and is_finite(iv.hi):
        # lo + (hi - lo) * k/16, over one denominator
        k = _randint(rng, 1, 15)
        ln, ld, hn, hd = iv.lo._numerator, iv.lo._denominator, iv.hi._numerator, iv.hi._denominator
        return _frac(ln * hd * (16 - k) + hn * ld * k, 16 * ld * hd)
    if is_finite(iv.lo):
        return _plus(iv.lo, _randint(rng, 1, 24), _randint(rng, 1, 4))
    if is_finite(iv.hi):
        return _plus(iv.hi, -_randint(rng, 1, 24), _randint(rng, 1, 4))
    return rand_fraction(rng)


def _escape_hull(flt: EscapeFilter, n: int, rng: random.Random) -> Interval:
    """A component-open neighborhood of the escape end containing element(n):
    the open block from start(n) moved j/8 away from the end (j drawn from
    1..8) to the end, cut to the component piece."""
    j = _randint(rng, 1, 8)
    num, den = flt._start_ratio(n)
    near = _frac(8 * num - flt.side * j * den, 8 * den)
    comp = flt.component.piece
    # near lies before the escape end, so the block lies inside the component
    # when near is past the other end, and covers it otherwise.
    if flt.side > 0:
        inside = _lt(comp.lo, near) or (comp.lo_closed and _eq(comp.lo, near))
    else:
        inside = _lt(near, comp.hi) or (comp.hi_closed and _eq(near, comp.hi))
    return flt.toward_end(near, False) if inside else comp


def random_p_neighborhood(ext: Extension, rng: random.Random, max_tail: int = 32) -> TypeII:
    """A valid type-II neighborhood of the extra point with random tails."""
    filters = ext.filters
    tails = tuple(_randint(rng, 0, max_tail) for _ in filters)
    # One hull per component, in line order: canonical by construction.
    trace = _mk_set(tuple(_escape_hull(flt, n, rng) for flt, n in zip(filters, tails)))
    if rng.random() < 0.5:
        trace = union(trace, random_open_in(ext.space.ambient, rng))
    return TypeII(trace, tails)


def random_ext_open(ext: Extension, rng: random.Random):
    """A random extension open: plain trace, neighborhood of p, or a combination."""
    roll = rng.random()
    if roll < 0.4:
        return TypeI(random_open_in(ext.space.ambient, rng))
    if roll < 0.75:
        return random_p_neighborhood(ext, rng, max_tail=12)
    a = random_p_neighborhood(ext, rng, max_tail=12)
    b = (
        TypeI(random_open_in(ext.space.ambient, rng))
        if rng.random() < 0.5
        else random_p_neighborhood(ext, rng, max_tail=12)
    )
    if rng.random() < 0.5:
        return intersect_open(ext, a, b)
    return union_open(ext, [a, b])


def clopen_candidates(ext: Extension, rng: random.Random, count: int):
    """Candidates for the clopen falsifier, biased toward near-clopen sets."""
    x = ext.space.ambient
    comps = x.pieces
    out = []
    for j in range(count):
        roll = rng.random()
        if roll < 0.25 and comps:
            chosen = normalize(c for c in comps if rng.random() < 0.5)
            if rng.random() < 0.5:
                out.append(TypeI(chosen))
            else:
                out.append(TypeII(difference(x, chosen), tuple(0 for _ in comps)))
        elif roll < 0.4:
            out.append(TypeI(random_closed_in(x, rng)))  # usually not even open
        else:
            out.append(random_ext_open(ext, rng))
    return out


def random_closed_in_extension(ext: Extension, rng: random.Random, include_p: bool) -> ExtClosedSet:
    """A random closed subset of the extension.

    Without the extra point the trace must stay away from every escape end,
    otherwise the extra point would be in its closure.
    """
    trace = random_closed_in(ext.space.ambient, rng)
    if include_p:
        return ExtClosedSet(True, trace)
    hulls = _mk_set(tuple(_escape_hull(flt, _randint(rng, 0, 6), rng) for flt in ext.filters))
    return ExtClosedSet(False, difference(trace, hulls))


def _open_expansion(s: IntervalSet, eps: Fraction) -> IntervalSet:
    en, ed = eps._numerator, eps._denominator
    parts = [
        _mk_interval(
            _plus(p.lo, -en, ed) if is_finite(p.lo) else NEG_INF,
            _plus(p.hi, en, ed) if is_finite(p.hi) else POS_INF,
            False,
            False,
        )
        for p in s.pieces
    ]
    return normalize(parts)


def random_disjoint_closed_pair(
    ext: Extension, rng: random.Random
) -> tuple[ExtClosedSet, ExtClosedSet]:
    """Two disjoint extension-closed sets; the extra point lands in F, in G,
    or in neither, with equal odds."""
    mode = ("pF", "pG", "plain")[_randint(rng, 0, 2)]
    f = random_closed_in_extension(ext, rng, mode == "pF")
    g = random_closed_in_extension(ext, rng, mode == "pG")
    if f.trace:
        margin = _frac(1, _randint(rng, 2, 4))
        g = ExtClosedSet(g.has_p, difference(g.trace, _open_expansion(f.trace, margin)))
    return f, g


EDGE_SPACES = (
    "(0,1)",
    "[0,1]",
    "[0,0]",
    "(-inf,inf)",
    "(-inf,0)",
    "(0,inf)",
    "[5,inf)",
    "(-inf,0]",
    "(0,1) U (1,2)",
    "(0,1) U [2,3]",
    "[0,0] U (1,2)",
    "(0,1] U [2,3)",
    "(-inf,0) U (0,inf)",
    "(0,1) U (2,3) U [5,inf)",
    "[0,1) U (1,2]",
    "(-inf,-5] U [-1,0] U (1,2)",
    "(0,1) U [2,2] U (3,4)",
)


def corpus(count: int = 200, seed: int = 20260808) -> list[Space]:
    """Edge cases plus generated spaces; even slots avoid compact components."""
    rng = random.Random(seed)
    spaces = [Space(parse_set(text)) for text in EDGE_SPACES]
    while len(spaces) < count:
        spaces.append(random_space(rng, allow_compact=len(spaces) % 2 == 1))
    return spaces
