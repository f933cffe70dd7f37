"""Differential tests of the interval algebra against an independent oracle.

``perfbench/refsets.py`` turns every set into a bitmask over the atoms
between sorted endpoints and shares no algorithm with onepoint.  Sets are
exchanged as text, so the grammar and the canonical rendering are tested
too.  Endpoints come from a small pool, so that coincident endpoints,
touching pieces and single missing points are common.
"""

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
    closure_in,
    complement,
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
from onepoint.space import component_index, component_slices

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
    assert str(complement(sa)) == text(line, line.full & ~ma)
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
        for op in (closure_in, not_interior_in, interior_in, is_open_in, is_closed_in):
            with pytest.raises(NotASubset):
                op(ss, sx)
        return
    bad = ms & line.closure(mx & ~ms)
    assert str(closure_in(ss, sx)) == text(line, line.closure(ms) & mx)
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
    got = [str(t) for t in component_slices(space, parse_set(rs.fmt_set(s)))]
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
