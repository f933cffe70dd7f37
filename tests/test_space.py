import random
from fractions import Fraction

import pytest

from onepoint import (
    EMPTY,
    EmptySpace,
    Interval,
    NEG_INF,
    NotClosed,
    NotDisjoint,
    POS_INF,
    Space,
    components,
    difference,
    has_compact_component,
    intersect,
    is_closed_in,
    is_compact,
    is_open_in,
    local_connectedness_certificate,
    only,
    parse_set,
    separate_disjoint_closed,
    union,
    verify_local_connectedness,
)
from onepoint.sampling import random_closed_in

S = parse_set


def space(text):
    return Space(S(text))


# --------------------------------------------------------------------------
# components and compactness
# --------------------------------------------------------------------------


def test_components_examples():
    assert [str(c.piece) for c in components(space("(0,1) U [2,3]"))] == ["(0,1)", "[2,3]"]
    assert [str(c.piece) for c in components(space("(0,1] U (1,2)"))] == ["(0,2)"]
    assert [str(c.piece) for c in components(space("[0,0] U (1,2)"))] == ["[0,0]", "(1,2)"]


def test_empty_space_rejected():
    with pytest.raises(EmptySpace):
        Space(EMPTY)


def test_is_compact_examples():
    (c0,) = components(space("[2,3]"))
    assert is_compact(c0)
    (c1,) = components(space("(0,1)"))
    assert not is_compact(c1)
    (c2,) = components(space("[5,inf)"))
    assert not is_compact(c2)
    (c3,) = components(space("[0,0]"))
    assert is_compact(c3)


def test_has_compact_component_examples():
    assert str(has_compact_component(space("(0,1) U [2,3]")).piece) == "[2,3]"
    assert has_compact_component(space("(0,1) U (2,3)")) is None
    assert str(has_compact_component(space("[0,0]")).piece) == "[0,0]"


def test_components_partition_and_clopen(corpus200):
    for sp in corpus200[:80]:
        comps = components(sp)
        total = EMPTY
        for c in comps:
            assert not intersect(total, c.as_set())
            total = union(total, c.as_set())
            assert is_open_in(c.as_set(), sp.ambient)
            assert is_closed_in(c.as_set(), sp.ambient)
        assert total == sp.ambient


# --------------------------------------------------------------------------
# local connectedness certificates
# --------------------------------------------------------------------------


def test_local_connectedness_golden():
    sp = space("(0,1) U [2,3]")
    cert = local_connectedness_certificate(sp)
    assert str(cert.entries[1][1]) == "(1,4)"
    assert verify_local_connectedness(sp, cert)

    sp2 = space("[0,1) U (1,2]")
    cert2 = local_connectedness_certificate(sp2)
    assert str(cert2.entries[0][1]) == "(-1,1)"
    assert verify_local_connectedness(sp2, cert2)

    sp3 = space("(0,inf)")
    cert3 = local_connectedness_certificate(sp3)
    assert str(cert3.entries[0][1]) == "(0,inf)"
    assert verify_local_connectedness(sp3, cert3)


def test_local_connectedness_corpus(corpus200):
    for sp in corpus200:
        assert verify_local_connectedness(sp, local_connectedness_certificate(sp))


# --------------------------------------------------------------------------
# normal separation
# --------------------------------------------------------------------------


def check_separation(sp, f, g):
    u, v = separate_disjoint_closed(sp, f, g)
    x = sp.ambient
    assert f.issubset(u) and g.issubset(v)
    assert not intersect(u, v)
    assert is_open_in(u, x) and is_open_in(v, x)
    return u, v


def test_separate_golden():
    u, v = check_separation(space("(-inf,inf)"), S("[0,1]"), S("[2,3]"))
    assert (str(u), str(v)) == ("(-inf,3/2)", "(3/2,inf)")

    u, v = check_separation(space("(0,1) U (1,2)"), S("(0,1)"), S("(1,2)"))
    assert (str(u), str(v)) == ("(0,1)", "(1,2)")

    u, v = check_separation(space("(-inf,inf)"), EMPTY, S("[2,3]"))
    assert (u, str(v)) == (EMPTY, "(-inf,inf)")


def test_separate_preconditions():
    with pytest.raises(NotClosed):
        separate_disjoint_closed(space("(-inf,inf)"), S("(0,1)"), S("[2,3]"))
    with pytest.raises(NotDisjoint):
        separate_disjoint_closed(space("(-inf,inf)"), S("[0,2]"), S("[2,3]"))


def test_separate_random_pairs(corpus200):
    rng = random.Random(31337)
    done = 0
    for sp in corpus200[:120]:
        x = sp.ambient
        for _ in range(3):
            f = random_closed_in(x, rng)
            g = difference(random_closed_in(x, rng), f.closure())
            if intersect(f, g) or not is_closed_in(g, x):
                continue
            check_separation(sp, f, g)
            done += 1
    assert done > 150


# --------------------------------------------------------------------------
# compactness versus a cover oracle, 20 hand-built cases
# --------------------------------------------------------------------------

COMPACT_CASES = [
    "[2,3]", "[0,0]", "[-5,-1]", "[0,10]", "[1/2,3/4]",
    "[-1,0]", "[7,7]", "[-100,100]", "[1,2]", "[-3/2,-1/3]",
]
NON_COMPACT_CASES = [
    "(0,1)", "[5,inf)", "(-inf,0)", "(0,1]", "[0,1)",
    "(-inf,inf)", "(2,3)", "(-inf,4]", "(-2,inf)", "(0,1/2)",
]


def greedy_subcover(target, members):
    """Test-side greedy sweep; returns the chosen members or None when stuck."""
    chosen = []
    remaining = target

    def frontier(s):
        if not s:
            return (float("inf"), 2)
        iv = s.pieces[0]
        return (iv.lo, 0 if iv.lo_closed else 1)

    while remaining:
        best, best_key, best_rest = None, frontier(remaining), None
        for i, m in enumerate(members):
            if i in chosen:
                continue
            rest = difference(remaining, m)
            key = frontier(rest)
            if key > best_key:
                best, best_key, best_rest = i, key, rest
        if best is None:
            return None
        chosen.append(best)
        remaining = best_rest
    return chosen


def relative_open_family(c, rng):
    """A finite family of relative opens covering the compact interval c."""
    lo, hi = c.pieces[0].lo, c.pieces[0].hi
    width = hi - lo if hi > lo else Fraction(1)
    members = []
    k = rng.randint(3, 6)
    for i in range(k):
        a = lo + width * Fraction(i, k) - width / rng.randint(2, 4) - 1
        b = lo + width * Fraction(i + 1, k) + width / rng.randint(2, 4)
        members.append(intersect(only(Interval(a, b)), c))
    members.append(intersect(only(Interval(lo - 1, lo + width / 3)), c))
    return members


def test_compactness_agrees_with_cover_oracle():
    rng = random.Random(404)
    for text in COMPACT_CASES:
        sp = space(text)
        (c,) = components(sp)
        assert is_compact(c)
        members = relative_open_family(c.as_set(), rng)
        chosen = greedy_subcover(c.as_set(), members)
        assert chosen is not None, f"greedy sweep failed on compact {text}"
    for text in NON_COMPACT_CASES:
        sp = space(text)
        (c,) = components(sp)
        assert not is_compact(c)
        piece = c.piece
        cset = c.as_set()
        prefix = EMPTY
        for n in range(1, 12):
            # escape cover member n: stays strictly away from non-compact ends
            if piece.lo == NEG_INF:
                a = Fraction(-n)
            elif piece.lo_closed:
                a = piece.lo - 1
            else:
                gap = (piece.hi - piece.lo) if piece.hi != POS_INF else Fraction(1)
                a = piece.lo + gap / 2**n
            if piece.hi == POS_INF:
                b = Fraction(n)
            elif piece.hi_closed:
                b = piece.hi + 1
            else:
                gap = (piece.hi - piece.lo) if piece.lo != NEG_INF else Fraction(1)
                b = piece.hi - gap / 2**n
            if a < b:
                prefix = union(prefix, intersect(only(Interval(a, b)), cset))
        # ascending chain: no finite prefix (hence no finite subfamily) covers c
        assert prefix != cset, f"escape cover reached the end of {text}"


def test_separate_refuses_a_non_subset_as_not_closed():
    sp = space("(0,1) U [2,3]")
    with pytest.raises(NotClosed) as exc:
        separate_disjoint_closed(sp, S("[5,6]"), S("[2,3]"))
    assert str(exc.value) == "F = [5,6] is not closed in (0,1) U [2,3]"
    with pytest.raises(NotClosed) as exc:
        separate_disjoint_closed(sp, S("[2,3]"), S("[1/2,2]"))
    assert str(exc.value) == "G = [1/2,2] is not closed in (0,1) U [2,3]"
