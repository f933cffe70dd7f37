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
from onepoint.intervals import (
    IntervalSet,
    _eq,
    _mk_interval,
    inner_point,
    is_finite,
    midpoint,
    normalize,
)
from onepoint.sampling import random_closed_in, random_point_in
from onepoint.space import split_points

import references

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
            assert check_separation(sp, f, g) == reference_separation(sp, f, g)
            done += 1
    assert done > 150


# --------------------------------------------------------------------------
# separation and the local-connectedness windows against a per-owner zone
# loop and an infinite-end-first ladder, kept here as references
# --------------------------------------------------------------------------


def reference_local_connectedness_entries(sp):
    """Each component with its window, an infinite end tested first."""
    pieces = sp.ambient.pieces
    entries = []
    for comp in components(sp):
        p, i = comp.piece, comp.index
        if not is_finite(p.lo):
            w_lo = NEG_INF
        elif i > 0:
            w_lo = pieces[i - 1].hi
        elif not p.lo_closed:
            w_lo = p.lo
        else:
            w_lo = inner_point(NEG_INF, p.lo)
        if not is_finite(p.hi):
            w_hi = POS_INF
        elif i + 1 < len(pieces):
            w_hi = pieces[i + 1].lo
        elif not p.hi_closed:
            w_hi = p.hi
        else:
            w_hi = inner_point(p.hi, POS_INF)
        entries.append((comp, Interval(w_lo, w_hi)))
    return tuple(entries)


def reference_separation(sp, f, g):
    """Separate two disjoint closed sets by per-owner zone lists, each
    normalized; the preconditions are the caller's."""
    x = sp.ambient
    if not f:
        return EMPTY, x
    if not g:
        return x, EMPTY
    tagged = references.merge_tagged(f, g)
    zones = ([], [])
    run_start = NEG_INF
    for idx, (piece, owner) in enumerate(tagged):
        nxt = tagged[idx + 1] if idx + 1 < len(tagged) else None
        if nxt is not None and nxt[1] == owner:
            continue
        if nxt is None:
            run_end = POS_INF
        else:
            a, b = piece.hi, nxt[0].lo
            run_end = a if _eq(a, b) else midpoint(a, b)
        zones[owner].append(_mk_interval(run_start, run_end, False, False))
        run_start = run_end
    return intersect(normalize(zones[0]), x), intersect(normalize(zones[1]), x)


def missing_point_spaces(rng, count):
    """Spaces with at least one infinite end whose pieces are parted by a
    single missing point or by a gap of length 1/2."""
    out = [space("(-inf,inf)"), space("(-inf,0) U (0,inf)"), space("(-inf,0] U [1,inf)")]
    while len(out) < count:
        cuts = sorted(rng.sample(range(-8, 9), rng.randint(1, 5)))
        lo, lo_closed = (NEG_INF, False) if rng.random() < 0.7 else (Fraction(cuts[0] - 1), True)
        pieces = []
        for q in cuts:
            if rng.random() < 0.6:  # q alone is missing
                pieces.append(Interval(lo, q, lo_closed, False))
                lo, lo_closed = Fraction(q), False
            else:
                pieces.append(Interval(lo, q, lo_closed, True))
                lo, lo_closed = q + Fraction(1, 2), rng.random() < 0.5
        if is_finite(pieces[0].lo) or rng.random() < 0.7:
            pieces.append(Interval(lo, POS_INF, lo_closed, False))
        else:
            pieces.append(Interval(lo, cuts[-1] + 1, lo_closed, True))
        out.append(Space(IntervalSet(tuple(pieces))))
    return out


def test_separation_and_windows_match_references(corpus200):
    """On every corpus space and on spaces with infinite ends and single
    missing points: the same certificate entries, and the same opens for
    closed pairs drawn as the separation self-test draws them and for the
    point pairs of split_points."""
    rng = random.Random(2525)
    pairs = points = 0
    for sp in corpus200 + missing_point_spaces(rng, 100):
        x = sp.ambient
        entries = local_connectedness_certificate(sp).entries
        assert entries == reference_local_connectedness_entries(sp)
        for _ in range(4):
            f = random_closed_in(x, rng)
            g = difference(random_closed_in(x, rng), f.closure())
            if intersect(f, g) or not is_closed_in(g, x):
                continue
            assert separate_disjoint_closed(sp, f, g) == reference_separation(sp, f, g)
            pairs += 1
        for _ in range(2):
            y, z = random_point_in(x, rng), random_point_in(x, rng)
            if y == z:
                continue
            f, g = S(f"[{y},{y}]"), S(f"[{z},{z}]")
            assert split_points(sp, y, z) == reference_separation(sp, f, g)
            points += 1
    assert pairs > 700 and points > 500


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

    while remaining:
        best, best_key, best_rest = None, references.frontier(remaining), None
        for i, m in enumerate(members):
            if i in chosen:
                continue
            rest = difference(remaining, m)
            key = references.frontier(rest)
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
