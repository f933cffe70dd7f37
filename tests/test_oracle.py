"""Differential tests of the interval algebra against an independent oracle.

``perfbench/refsets.py`` turns every set into a bitmask over the atoms
between sorted endpoints and shares no algorithm with onepoint.  Sets are
exchanged as text, so the grammar and the canonical rendering are tested
too.  Endpoints come from a small pool, so that coincident endpoints,
touching pieces and single missing points are common.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onepoint import (
    IntervalSet,
    NotASubset,
    PointOutsideComponent,
    Space,
    difference,
    interior_in,
    intersect,
    is_closed_in,
    is_open_in,
    normalize,
    not_interior_in,
    parse_set,
    union,
)
from onepoint.space import component_index

import references

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import refsets as rs  # noqa: E402

POOL = [Fraction(n, d) for n, d in ((-2, 1), (-1, 1), (-1, 2), (0, 1), (1, 3), (1, 1), (2, 1))]
# Points to locate: the pool itself and a point inside every gap between pool values.
PROBES = POOL + [(a + b) / 2 for a, b in zip(POOL, POOL[1:])] + [Fraction(-3), Fraction(3)]

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def pieces(draw):
    """An interval as refsets writes it: (lo, hi, lo_closed, hi_closed), None for an infinity."""
    lo = draw(st.sampled_from([None] + POOL))
    hi = draw(st.sampled_from(POOL + [None]))
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    if lo is not None and lo == hi:
        return (lo, hi, True, True)
    return (lo, hi, lo is not None and draw(st.booleans()), hi is not None and draw(st.booleans()))


sets = st.lists(pieces(), max_size=4)


def text(line, mask):
    return rs.fmt_set(line.pieces(mask))


@SETTINGS
@given(sets, sets)
def test_boolean_algebra(a, b):
    line = rs.Line.over(a, b)
    ma, mb = line.mask(a), line.mask(b)
    sa, sb = parse_set(rs.fmt_set(a)), parse_set(rs.fmt_set(b))
    assert str(sa) == text(line, ma)
    assert str(intersect(sa, sb)) == text(line, ma & mb)
    assert str(union(sa, sb)) == text(line, ma | mb)
    assert str(references.complement(sa)) == text(line, line.full & ~ma)
    assert str(difference(sa, sb)) == text(line, ma & ~mb)
    assert sa.issubset(sb) == (ma & ~mb == 0)


@SETTINGS
@given(sets, sets, st.booleans())
def test_relative_topology(s, x, inside):
    line = rs.Line.over(s, x)
    mx = line.mask(x)
    ms = line.mask(s) & mx if inside else line.mask(s)
    ss, sx = parse_set(text(line, ms)), parse_set(text(line, mx))
    if ms & ~mx:
        for op in (references.closure_in, not_interior_in, interior_in, is_open_in, is_closed_in):
            with pytest.raises(NotASubset):
                op(ss, sx)
        return
    bad = ms & line.closure(mx & ~ms)
    assert str(references.closure_in(ss, sx)) == text(line, line.closure(ms) & mx)
    assert str(not_interior_in(ss, sx)) == text(line, bad)
    assert str(interior_in(ss, sx)) == text(line, ms & ~bad)
    assert is_open_in(ss, sx) == line.is_open_in(ms, mx)
    assert is_closed_in(ss, sx) == line.is_closed_in(ms, mx)


@SETTINGS
@given(sets.filter(bool), sets, st.sampled_from(PROBES))
def test_component_views(x, s, z):
    line = rs.Line.over(x, s, extra=[z])
    comps = line.pieces(line.mask(x))
    space = Space(parse_set(rs.fmt_set(x)))
    ms = line.mask(s)
    got = [str(t) for t in references.reference_slices(space, parse_set(rs.fmt_set(s)))]
    assert got == [text(line, ms & line.interval(c)) for c in comps]
    holding = [i for i, c in enumerate(comps) if line.interval(c) & line.point(z)]
    if holding:
        assert component_index(space, z) == holding[0]
    else:
        with pytest.raises(PointOutsideComponent):
            component_index(space, z)


@SETTINGS
@given(sets, sets)
def test_union_is_the_canonical_form_of_both_piece_lists(a, b):
    sa, sb = parse_set(rs.fmt_set(a)), parse_set(rs.fmt_set(b))
    joined = union(sa, sb)
    assert joined == normalize(sa.pieces + sb.pieces) == normalize(sb.pieces + sa.pieces)
    assert IntervalSet(joined.pieces) == joined  # rechecks canonical form


# --------------------------------------------------------------------------
# long operands: runs for the sweeps to skip and copy
# --------------------------------------------------------------------------

LONG_LINE = rs.Line([Fraction(k, 2) for k in range(-240, 241)])


def long_mask(rng, count, longest, lo=0, hi=LONG_LINE.size):
    """The union of `count` random runs of up to `longest` atoms inside atoms lo..hi-1."""
    mask = 0
    for _ in range(count):
        start = rng.randrange(lo, hi)
        end = min(hi, start + rng.randint(1, longest))
        mask |= ((1 << end) - 1) ^ ((1 << start) - 1)
    return mask


def long_operands(rng):
    """Masks of 30 to 130 pieces, spread or clustered at both ends, and one-piece masks."""
    size = LONG_LINE.size
    third = size // 3
    spread = long_mask(rng, rng.randint(50, 220), 4)
    left = long_mask(rng, rng.randint(40, 150), 3, 0, third)
    right = long_mask(rng, rng.randint(40, 150), 3, 2 * third, size)
    start = rng.randrange(size)
    end = start + 1 if rng.random() < 0.3 else rng.randint(start + 1, size)
    one = ((1 << end) - 1) ^ ((1 << start) - 1)  # a point, a gap or a longer run
    return [spread, left, right, left | right, one, LONG_LINE.full]


def test_long_operands_match_the_atom_oracle():
    rng = random.Random(19)
    line = LONG_LINE
    counts = set()
    for _ in range(12):
        masks = long_operands(rng)
        sets = [parse_set(text(line, m)) for m in masks]
        counts.update(len(s.pieces) for s in sets)
        # Results of the sweeps share piece objects with their operands;
        # operate on them too, so shared pieces meet in every role.
        a, b = sets[0], sets[3]
        for m, s in ((masks[0] & masks[3], intersect(a, b)), (masks[0] | masks[3], union(a, b)),
                     (masks[0] & ~masks[3], difference(a, b))):
            assert str(s) == text(line, m)
            masks.append(m)
            sets.append(s)
        for ma, sa in zip(masks, sets):
            for mb, sb in zip(masks, sets):
                assert str(intersect(sa, sb)) == text(line, ma & mb)
                assert str(union(sa, sb)) == text(line, ma | mb)
                assert str(difference(sa, sb)) == text(line, ma & ~mb)
                assert sa.issubset(sb) == (ma & ~mb == 0)
                inner = ma & mb
                for ms, ss in ((inner, intersect(sa, sb)), (ma, sa)):
                    if ms & ~mb:
                        for op in (not_interior_in, is_closed_in):
                            with pytest.raises(NotASubset):
                                op(ss, sb)
                        continue
                    bad = ms & line.closure(mb & ~ms)
                    assert str(not_interior_in(ss, sb)) == text(line, bad)
                    assert is_closed_in(ss, sb) == line.is_closed_in(ms, mb)
                if mb:
                    comps = line.pieces(mb)
                    got = [str(t) for t in references.reference_slices(Space(sb), sa)]
                    assert got == [text(line, ma & line.interval(c)) for c in comps]
    assert min(counts) == 1 and max(counts) > 100
    assert len([c for c in counts if 30 <= c <= 130]) > 20
