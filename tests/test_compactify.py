import random
from fractions import Fraction

import pytest

from onepoint import (
    EMPTY,
    INFINITY,
    CompactExtension,
    CompactRefused,
    EqualPoints,
    NotACover,
    Refused,
    Space,
    TypeI,
    TypeInf,
    check_connectifiable,
    compactification_hausdorff_witness,
    comp_contains,
    difference,
    finite_subcover,
    intersect,
    is_open_in_compactification,
    is_space_compact,
    parse_set,
    union,
    verify_compact_hausdorff,
)
from onepoint.compactify import _frontier, compactify
from onepoint.sampling import random_open_in, random_point_in

S = parse_set


def space(text):
    return Space(S(text))


def test_is_space_compact_examples():
    assert is_space_compact(space("[0,1] U [2,3]"))
    assert not is_space_compact(space("[0,1] U (2,3)"))
    assert not is_space_compact(space("[5,inf)"))


def test_compactify_examples():
    assert isinstance(compactify(space("(0,1)")), CompactExtension)
    assert isinstance(compactify(space("[0,1]")), CompactRefused)
    assert isinstance(compactify(space("[5,inf)")), CompactExtension)


def test_open_in_compactification_examples():
    ce = compactify(space("(0,1)"))
    assert is_open_in_compactification(ce, TypeInf(difference(S("(0,1)"), S("[1/4,3/4]"))))
    chk = is_open_in_compactification(ce, TypeInf(difference(S("(0,1)"), S("[1/4,1)"))))
    assert not chk and chk.reason == "RemainderNotCompact"
    assert is_open_in_compactification(ce, TypeI(S("(1/4,1/2)")))
    chk = is_open_in_compactification(ce, TypeI(S("[1/4,1/2)")))
    assert not chk and chk.reason == "TraceNotOpen"


def test_hausdorff_witness_golden():
    ce = compactify(space("(0,1)"))
    u, v = compactification_hausdorff_witness(ce, INFINITY, Fraction(1, 2))
    assert difference(S("(0,1)"), u.trace) == S("[1/4,3/4]")
    assert v.trace == S("(1/4,3/4)")
    assert verify_compact_hausdorff(ce, INFINITY, Fraction(1, 2), u, v)

    ce2 = compactify(space("[5,inf)"))
    u, v = compactification_hausdorff_witness(ce2, INFINITY, Fraction(5))
    assert difference(S("[5,inf)"), u.trace) == S("[5,6]")
    assert v.trace == S("[5,6)")
    assert u.trace == S("(6,inf)")
    assert verify_compact_hausdorff(ce2, INFINITY, Fraction(5), u, v)

    u, v = compactification_hausdorff_witness(ce2, Fraction(6), Fraction(8))
    assert u.trace == S("[5,7)") and v.trace == S("(7,inf)")

    with pytest.raises(EqualPoints):
        compactification_hausdorff_witness(ce, INFINITY, INFINITY)


def test_hausdorff_orientation():
    ce = compactify(space("(0,1)"))
    u, v = compactification_hausdorff_witness(ce, Fraction(1, 2), INFINITY)
    assert comp_contains(u, Fraction(1, 2)) and comp_contains(v, INFINITY)
    assert verify_compact_hausdorff(ce, Fraction(1, 2), INFINITY, u, v)


def test_finite_subcover_examples():
    ce = compactify(space("(0,1)"))
    cover = [
        TypeInf(difference(S("(0,1)"), S("[1/4,3/4]"))),
        TypeI(S("(1/8,1/2)")),
        TypeI(S("(3/8,7/8)")),
    ]
    sub = finite_subcover(ce, cover)
    assert len(sub) == 3
    total = EMPTY
    for m in sub:
        total = union(total, m.trace)
    assert total == S("(0,1)") and any(isinstance(m, TypeInf) for m in sub)

    whole = TypeInf(S("(0,1)"))
    assert finite_subcover(ce, [whole]) == [whole]

    with pytest.raises(NotACover):
        finite_subcover(ce, [TypeI(S("(0,1)"))])
    with pytest.raises(NotACover):
        finite_subcover(ce, [TypeInf(difference(S("(0,1)"), S("[1/4,3/4]")))])


def test_frontier_is_the_first_lower_end_or_past_every_end():
    """The greedy sweep's key: the first piece's lower end, an included end
    first, and an empty remainder above every such key."""
    assert _frontier(EMPTY) == (float("inf"), 2)
    assert _frontier(S("[1,2] U [3,4]")) == (Fraction(1), 0)
    assert _frontier(S("(1,2) U [3,4]")) == (Fraction(1), 1)
    assert _frontier(S("(-inf,0)")) == (float("-inf"), 1)
    assert _frontier(S("[1,2]")) < _frontier(S("(1,2)")) < _frontier(EMPTY)


def test_subcover_union_is_whole(extensions):
    from onepoint.sampling import _open_expansion

    rng = random.Random(220)
    checked = 0
    for ext in extensions:
        space_ = ext.space
        if len(space_.ambient.pieces) != 1:
            continue
        ce = compactify(space_)
        assert isinstance(ce, CompactExtension)
        z = random_point_in(space_.ambient, rng)
        u, v = compactification_hausdorff_witness(ce, INFINITY, z)
        box = difference(space_.ambient, u.trace)
        hull = TypeI(intersect(_open_expansion(box, Fraction(1)), space_.ambient))
        extra = TypeI(union(v.trace, random_open_in(space_.ambient, rng)))
        sub = finite_subcover(ce, [u, hull, extra])
        total = EMPTY
        for m in sub:
            total = union(total, m.trace)
        assert total == space_.ambient
        assert any(isinstance(m, TypeInf) for m in sub)
        checked += 1
        if checked >= 25:
            break
    assert checked >= 10


def test_duality_with_connectification(corpus200):
    for sp in corpus200:
        if len(sp.ambient.pieces) != 1:
            continue
        assert isinstance(compactify(sp), CompactRefused) == isinstance(
            check_connectifiable(sp), Refused
        )
