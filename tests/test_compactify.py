import random
from fractions import Fraction

import pytest

from onepoint import (
    EMPTY,
    INFINITY,
    CompactExtension,
    CompactRefused,
    EqualPoints,
    Interval,
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
    only,
    parse_set,
    union,
    verify_compact_hausdorff,
)
from onepoint import compactify as cp
from onepoint.compactify import compactify
from onepoint.connectify import TypeII
from onepoint.sampling import _open_expansion, random_open_in, random_point_in

import references

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


def test_hausdorff_verifier_takes_only_compactification_opens():
    """An extension's type-II open over an open trace is no open of the
    compactification: on `(0,1) U [2,3]` it is refused in place of either
    open of a two-point witness, which passes as built, as does a witness
    from infinity with its `TypeInf`."""
    ce = compactify(space("(0,1) U [2,3]"))
    y, z = Fraction(1, 2), Fraction(5, 2)
    u, v = compactification_hausdorff_witness(ce, y, z)
    assert isinstance(u, TypeI) and isinstance(v, TypeI)
    assert verify_compact_hausdorff(ce, y, z, u, v)
    assert not verify_compact_hausdorff(ce, y, z, TypeII(u.trace, (0, 0)), v)
    assert not verify_compact_hausdorff(ce, y, z, u, TypeII(v.trace, (0, 0)))
    u, v = compactification_hausdorff_witness(ce, INFINITY, y)
    assert isinstance(u, TypeInf) and verify_compact_hausdorff(ce, INFINITY, y, u, v)


def test_hausdorff_verifier_refuses_an_open_over_an_open():
    """An open whose trace is itself an open, not a set, is refused with
    `False`, not an error."""
    ce = compactify(space("(0,1) U [2,inf)"))
    y, z = Fraction(1, 2), Fraction(5)
    u, v = compactification_hausdorff_witness(ce, y, z)
    assert verify_compact_hausdorff(ce, y, z, u, v)
    assert not verify_compact_hausdorff(ce, y, z, TypeI(u), v)
    assert not verify_compact_hausdorff(ce, y, z, u, TypeInf(v))
    u, v = compactification_hausdorff_witness(ce, INFINITY, y)
    assert not verify_compact_hausdorff(ce, INFINITY, y, TypeInf(u), v)


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


def test_subcover_ties_keep_the_earlier_member():
    """Two members leaving rests that start together: the greedy keeps the
    one listed first, whichever that is."""
    ce = compactify(space("(0,3)"))
    inf = TypeInf(S("(0,1/2) U (5/2,3)"))  # leaves [1/2,5/2]
    a, b, c = TypeI(S("(1/4,1)")), TypeI(S("(1/3,1)")), TypeI(S("(3/4,3)"))
    assert finite_subcover(ce, [inf, a, b, c]) == [inf, a, c]
    assert finite_subcover(ce, [inf, b, a, c]) == [inf, b, c]


def test_subcover_keeps_a_rest_past_an_included_end(monkeypatch):
    """Rests starting at [1 and at (1: the second starts later, so the greedy
    keeps the member leaving it.  A compact remainder always starts at an
    included end, so a stub `difference` hands the greedy these two rests."""
    ce = compactify(space("(0,3)"))
    inf = TypeInf(S("(0,1/2) U (5/2,3)"))
    a, b, c = TypeI(S("(1/4,1)")), TypeI(S("(1/3,6/5)")), TypeI(S("(3/4,3)"))
    rests = {a.trace: S("[1,5/2]"), b.trace: S("(1,5/2]")}
    real = cp.difference
    monkeypatch.setattr(cp, "difference", lambda r, t: rests[t] if t in rests else real(r, t))
    assert finite_subcover(ce, [inf, a, b, c]) == [inf, b, c]


def test_subcover_matches_the_tuple_key_reference(corpus200):
    """On every compactifiable corpus space: random covers, with a twin of
    one member that leaves the same rests so that ties occur, pick what the
    greedy comparing the old Python-tuple key picks."""
    rng = random.Random(3232)
    count = 0
    for sp in corpus200:
        ce = compactify(sp)
        if not isinstance(ce, CompactExtension):
            continue
        x = sp.ambient
        for _ in range(3):
            u, v = compactification_hausdorff_witness(ce, INFINITY, random_point_in(x, rng))
            (box,) = difference(x, u.trace).pieces
            # a chain of m overlapping opens across the box, so that the
            # sweep takes several steps
            m = rng.randint(1, 4)
            cuts = [box.lo + (box.hi - box.lo) * Fraction(j, m) for j in range(m + 1)]
            eps = (box.hi - box.lo) / (4 * m) or Fraction(1, 4)  # a box may be one point
            pieces = [TypeI(random_open_in(x, rng)) for _ in range(rng.randint(0, 3))]
            for a, b in zip(cuts, cuts[1:]):
                pieces.append(TypeI(intersect(only(Interval(a - eps, b + eps)), x)))
            twin = pieces[rng.randrange(len(pieces))]
            pieces.append(TypeI(union(twin.trace, u.trace)))  # u's trace is covered
            rng.shuffle(pieces)
            cover = [u] + pieces
            assert finite_subcover(ce, cover) == references.subcover(ce, cover)
            count += 1
    assert count > 250


def test_subcover_union_is_whole(extensions):
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
