import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from onepoint import (
    EMPTY,
    Interval,
    IntervalSet,
    MalformedInterval,
    NEG_INF,
    NotASubset,
    POS_INF,
    ParseError,
    REALS,
    closure_in,
    complement,
    difference,
    interior_in,
    intersect,
    interval,
    is_closed_in,
    is_open_in,
    normalize,
    not_interior_in,
    parse_point,
    parse_set,
    pick_point,
    point,
    union,
)

from onepoint import intervals
from onepoint.intervals import _eq, _lt
from onepoint.sampling import random_closed_in, random_open_in, random_real_open

S = parse_set


# --------------------------------------------------------------------------
# an independent membership oracle over raw interval descriptions
# --------------------------------------------------------------------------

# raw = (lo, hi, lo_closed, hi_closed) with None meaning the missing infinity
def raw_contains(raw, q):
    lo, hi, lo_c, hi_c = raw
    above = lo is None or q > lo or (q == lo and lo_c)
    below = hi is None or q < hi or (q == hi and hi_c)
    return above and below


def to_interval(raw):
    lo, hi, lo_c, hi_c = raw
    return Interval(NEG_INF if lo is None else lo, POS_INF if hi is None else hi, lo_c, hi_c)


def random_raw(rng):
    kind = rng.random()
    if kind < 0.1:
        return (None, Fraction(rng.randint(-16, 16), rng.randint(1, 4)), False, rng.random() < 0.5)
    if kind < 0.2:
        return (Fraction(rng.randint(-16, 16), rng.randint(1, 4)), None, rng.random() < 0.5, False)
    a = Fraction(rng.randint(-16, 16), rng.randint(1, 4))
    if kind < 0.3:
        return (a, a, True, True)
    b = a + Fraction(rng.randint(1, 12), rng.randint(1, 4))
    return (a, b, rng.random() < 0.5, rng.random() < 0.5)


def random_raw_set(rng):
    return [random_raw(rng) for _ in range(rng.randint(0, 4))]


def test_membership_oracle_agreement():
    rng = random.Random(9001)
    for _ in range(1000):
        raw_a, raw_b = random_raw_set(rng), random_raw_set(rng)
        a = normalize(to_interval(r) for r in raw_a)
        b = normalize(to_interval(r) for r in raw_b)
        q = Fraction(rng.randint(-80, 80), rng.randint(1, 6))
        in_a = any(raw_contains(r, q) for r in raw_a)
        in_b = any(raw_contains(r, q) for r in raw_b)
        assert (q in a) == in_a
        assert (q in union(a, b)) == (in_a or in_b)
        assert (q in intersect(a, b)) == (in_a and in_b)
        assert (q in difference(a, b)) == (in_a and not in_b)


# --------------------------------------------------------------------------
# normalization
# --------------------------------------------------------------------------


def test_normalize_keeps_missing_point():
    assert S("(0,1) U (1,2)").pieces == (interval(0, 1), interval(1, 2))


def test_normalize_merges_touching():
    assert S("(0,1] U (1,2)") == S("(0,2)")


def test_normalize_merges_overlap():
    assert S("[0,1] U [1/2,3]") == S("[0,3]")


def test_normalize_idempotent_and_order_insensitive():
    rng = random.Random(7)
    for _ in range(200):
        raws = random_raw_set(rng)
        ivs = [to_interval(r) for r in raws]
        a = normalize(ivs)
        rng.shuffle(ivs)
        assert normalize(ivs) == a
        assert normalize(a.pieces) == a


def test_malformed_intervals_rejected():
    with pytest.raises(MalformedInterval):
        interval(1, 0)
    with pytest.raises(MalformedInterval):
        interval(0, 0)  # empty degenerate form
    with pytest.raises(MalformedInterval):
        Interval(NEG_INF, 0, True, True)
    with pytest.raises(MalformedInterval):
        Interval(0, POS_INF, False, True)
    with pytest.raises(MalformedInterval):
        Interval(0.5, 1)


# --------------------------------------------------------------------------
# boolean algebra examples
# --------------------------------------------------------------------------


def test_set_operation_examples():
    assert intersect(S("(0,2)"), S("[1,3]")) == S("[1,2)")
    assert difference(S("[0,3]"), S("(1,2)")) == S("[0,1] U [2,3]")
    assert union(EMPTY, S("(0,1)")) == S("(0,1)")
    assert complement(EMPTY) == REALS
    assert complement(S("[0,0]")) == S("(-inf,0) U (0,inf)")


def test_relative_topology_examples():
    assert closure_in(S("(0,1/2)"), S("(0,1)")) == S("(0,1/2]")
    assert closure_in(S("[1/2,1)"), S("(0,1)")) == S("[1/2,1)")
    assert closure_in(S("(0,1)"), S("[0,1]")) == S("[0,1]")
    assert interior_in(S("[1/4,1/2]"), S("(0,1)")) == S("(1/4,1/2)")
    assert interior_in(S("[0,1/2)"), S("[0,1]")) == S("[0,1/2)")
    x = S("(0,1) U [2,3]")
    assert interior_in(x, x) == x
    assert is_closed_in(S("(0,1/3]"), S("(0,1)"))
    assert is_open_in(S("[0,1/2)"), S("[0,1]"))
    assert not is_open_in(S("[1/2,1)"), S("(0,1)"))


def test_subset_precondition():
    with pytest.raises(NotASubset):
        closure_in(S("(0,2)"), S("(0,1)"))
    with pytest.raises(NotASubset):
        interior_in(S("[0,1]"), S("(0,1)"))


def reference_interior_in(s, x):
    """The interior as x minus the relative closure of the relative complement."""
    return difference(x, closure_in(difference(x, s), x))


def test_interior_and_openness_match_reference_on_corpus(corpus200):
    rng = random.Random(4242)
    for space in corpus200:
        x = space.ambient
        for _ in range(12):
            s = rng.choice((random_open_in, random_closed_in))(x, rng)
            s = union(s, intersect(random_real_open(rng).closure(), x))
            ref = reference_interior_in(s, x)
            assert interior_in(s, x) == ref
            assert not_interior_in(s, x) == difference(s, ref)
            assert is_open_in(s, x) == (ref == s)
    with pytest.raises(NotASubset):
        not_interior_in(S("[0,1]"), S("(0,1)"))


# The formulas the host sweeps replaced, kept as references.
def reference_not_interior_in(s, x):
    if not s.issubset(x):
        raise NotASubset(f"{s} is not a subset of {x}")
    return intersect(s, difference(x, s).closure())


def reference_is_closed_in(s, x):
    if not s.issubset(x):
        raise NotASubset(f"{s} is not a subset of {x}")
    return not intersect(s.closure(), difference(x, s))


def outcome(op, s, x):
    try:
        return op(s, x)
    except NotASubset:
        return NotASubset


def assert_sweeps_match_references(s, x):
    assert outcome(not_interior_in, s, x) == outcome(reference_not_interior_in, s, x), (s, x)
    assert outcome(is_closed_in, s, x) == outcome(reference_is_closed_in, s, x), (s, x)


def corpus_pairs(corpus200, seed):
    """Subsets of every corpus space, and as many sets that leave it."""
    rng = random.Random(seed)
    for space in corpus200:
        x = space.ambient
        for _ in range(6):
            s = rng.choice((random_open_in, random_closed_in))(x, rng)
            line = random_real_open(rng)
            yield union(s, intersect(line.closure(), x)), x
            yield union(s, line), x


def test_sweeps_match_references_on_corpus(corpus200):
    for s, x in corpus_pairs(corpus200, 515):
        assert_sweeps_match_references(s, x)


# The endpoint pool of tests/test_oracle.py, and both infinities.
POOL = [Fraction(n, d) for n, d in ((-2, 1), (-1, 1), (-1, 2), (0, 1), (1, 3), (1, 1), (2, 1))]


def random_pool_set(rng):
    ends = [NEG_INF] + POOL + [POS_INF]
    pieces = []
    for _ in range(rng.randint(0, 3)):
        i, j = sorted(rng.sample(range(len(ends)), 2))
        if 0 < i and rng.random() < 0.2:
            pieces.append(point(ends[i]))
        else:
            lo_closed = 0 < i and rng.random() < 0.5
            hi_closed = j < len(ends) - 1 and rng.random() < 0.5
            pieces.append(Interval(ends[i], ends[j], lo_closed, hi_closed))
    return normalize(pieces)


def test_sweeps_match_references_on_endpoint_pool():
    rng = random.Random(616)
    for _ in range(20000):
        x, s = random_pool_set(rng), random_pool_set(rng)
        if rng.random() < 0.6:
            s = intersect(s, x)
        assert_sweeps_match_references(s, x)


@pytest.mark.parametrize(
    "s, x, not_interior, closed",
    [
        # degenerate pieces: interior only as an isolated point of x
        ("[1,1]", "[1,1] U [2,3]", "empty", True),
        ("[1,1]", "[0,1]", "[1,1]", True),
        ("[1,1]", "[1,2)", "[1,1]", True),
        ("[0,0] U [1,1]", "[0,1]", "[0,0] U [1,1]", True),
        # pieces sharing an endpoint with their host
        ("[0,1/2)", "[0,1]", "empty", False),
        ("(0,1/2]", "[0,1]", "[1/2,1/2]", False),
        ("(0,1/2]", "(0,1)", "[1/2,1/2]", True),
        ("(0,1)", "(0,1)", "empty", True),
        ("[0,1] U [2,3)", "[0,1] U [2,3]", "empty", False),
        # both infinities
        ("(-inf,0)", "(-inf,inf)", "empty", False),
        ("(-inf,inf)", "(-inf,inf)", "empty", True),
        ("(-inf,0] U [1,inf)", "(-inf,inf)", "[0,0] U [1,1]", True),
        ("(-inf,0] U (4,inf)", "(-inf,0] U [1,2] U [3,inf)", "empty", False),
        ("empty", "(-inf,inf)", "empty", True),
    ],
)
def test_sweep_examples(s, x, not_interior, closed):
    assert not_interior_in(S(s), S(x)) == S(not_interior)
    assert is_closed_in(S(s), S(x)) == closed
    assert_sweeps_match_references(S(s), S(x))


@pytest.mark.parametrize(
    "s, x",
    [
        # an earlier piece already decides the answer; a later one leaves x
        ("[0,1] U [5,6]", "(-1,2)"),
        ("(0,1) U [5,6]", "[0,2]"),
        ("[1,1] U (2,3]", "[0,3)"),
        ("(-inf,0] U [1,inf)", "(-inf,1) U (1,inf)"),
    ],
)
def test_sweeps_check_every_piece_before_answering(s, x):
    for op in (not_interior_in, is_closed_in, is_open_in):
        with pytest.raises(NotASubset):
            op(S(s), S(x))


def test_sweeps_build_no_complement_or_closure(corpus200, monkeypatch):
    pairs = [(s, x) for s, x in corpus_pairs(corpus200, 717) if s.issubset(x)]
    expected = [(not_interior_in(s, x), is_closed_in(s, x), is_open_in(s, x)) for s, x in pairs]

    def boom(*args):
        raise AssertionError("the sweeps build no intermediate set")

    monkeypatch.setattr(intervals, "complement", boom)
    monkeypatch.setattr(intervals, "_intersect_pieces", boom)
    monkeypatch.setattr(IntervalSet, "closure", boom)
    got = [(not_interior_in(s, x), is_closed_in(s, x), is_open_in(s, x)) for s, x in pairs]
    assert got == expected


# --------------------------------------------------------------------------
# algebraic laws (property-based)
# --------------------------------------------------------------------------

fracs = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@st.composite
def intervals_st(draw):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return Interval(NEG_INF, draw(fracs), False, draw(st.booleans()))
    if kind == 1:
        return Interval(draw(fracs), POS_INF, draw(st.booleans()), False)
    a = draw(fracs)
    if kind == 2:
        return point(a)
    b = draw(fracs)
    if a == b:
        return point(a)
    lo, hi = min(a, b), max(a, b)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


interval_sets = st.lists(intervals_st(), max_size=4).map(normalize)


@settings(max_examples=120, deadline=None)
@given(interval_sets, interval_sets, interval_sets)
def test_de_morgan_within_ambient(a, b, x):
    assert difference(x, union(a, b)) == intersect(difference(x, a), difference(x, b))


@settings(max_examples=120, deadline=None)
@given(interval_sets, interval_sets)
def test_closure_interior_laws(s0, x):
    s = intersect(s0, x)
    cl = closure_in(s, x)
    it = interior_in(s, x)
    assert closure_in(cl, x) == cl
    assert interior_in(it, x) == it
    assert it.issubset(s) and s.issubset(cl)


@settings(max_examples=120, deadline=None)
@given(interval_sets, interval_sets, interval_sets)
def test_closure_interior_monotone(a0, b0, x):
    small = intersect(a0, x)
    big = union(small, intersect(b0, x))
    assert closure_in(small, x).issubset(closure_in(big, x))
    assert interior_in(small, x).issubset(interior_in(big, x))


@settings(max_examples=100, deadline=None)
@given(interval_sets)
def test_complement_involution(a):
    assert complement(complement(a)) == a


@settings(max_examples=120, deadline=None)
@given(interval_sets, interval_sets)
def test_openness_matches_interior_definition(s0, x):
    s = intersect(s0, x)
    assert is_open_in(s, x) == (interior_in(s, x) == s)
    assert is_closed_in(s, x) == (closure_in(s, x) == s)


@settings(max_examples=120, deadline=None)
@given(interval_sets, interval_sets)
def test_issubset_matches_difference(a, b):
    assert a.issubset(b) == (not difference(a, b))


@settings(max_examples=100, deadline=None)
@given(interval_sets)
def test_grammar_round_trip(a):
    assert parse_set(str(a)) == a


@settings(max_examples=100, deadline=None)
@given(interval_sets)
def test_pick_point_lands_inside(a):
    if a:
        assert pick_point(a) in a
    else:
        with pytest.raises(ValueError):
            pick_point(a)


# --------------------------------------------------------------------------
# grammar
# --------------------------------------------------------------------------


def test_parse_examples():
    assert str(S("(0,1) U [2,3] U [5,inf)")) == "(0,1) U [2,3] U [5,inf)"
    assert S(" ( 0 , 1 ) U [ 2 , 3 ]") == S("(0,1) U [2,3]")
    assert S("empty") == EMPTY
    assert str(EMPTY) == "empty"
    assert S("(-1/2,1/3]").pieces[0].hi == Fraction(1, 3)


def test_parse_rejects_bad_syntax():
    for bad in ["", "(0,1", "[inf,2]", "(2,1)", "(0,0)", "(0.5,1)", "(1/0,2)", "foo"]:
        with pytest.raises(ParseError):
            S(bad)


def test_parse_point():
    assert parse_point("3/4") == Fraction(3, 4)
    assert parse_point("-7") == -7
    for bad in ["p", "inf", "0.5", "1/0"]:
        with pytest.raises(ParseError):
            parse_point(bad)


# --------------------------------------------------------------------------
# the exact comparison kernel
# --------------------------------------------------------------------------

TINY = Fraction(1, 2**4096)
KERNEL_POOL = [
    NEG_INF,
    POS_INF,
    Fraction(0),
    Fraction(-3),
    Fraction(-1, 2),
    Fraction(2, 4),
    Fraction("1/2"),
    Fraction(1),
    1 - TINY,
    1 + TINY,
    -TINY,
    TINY,
]
kernel_values = st.one_of(st.sampled_from(KERNEL_POOL), st.fractions())


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(kernel_values, kernel_values)
def test_comparison_kernel_agrees_with_python(a, b):
    assert _lt(a, b) == (a < b)
    assert _eq(a, b) == (a == b)


def test_infinity_sentinels_stay_apart():
    whole = S("(-inf,inf)")
    assert not whole.pieces[0].degenerate
    assert intersect(whole, whole) == REALS
    assert union(S("(-inf,0]"), S("[0,inf)")) == REALS
    assert normalize([interval(NEG_INF, 1), interval(0, POS_INF)]) == REALS
    assert normalize([interval(0, POS_INF), interval(NEG_INF, 1)]) == REALS
    assert complement(REALS) == EMPTY
    assert S("(-inf,0)").issubset(REALS)
    assert not REALS.issubset(S("(-inf,0)"))


class SubFraction(Fraction):
    """A Fraction subclass, as a caller might hand in."""


def test_fraction_subclass_endpoints_are_stored_plain():
    sub = Interval(SubFraction(0), SubFraction(1, 2), True, False)
    plain = Interval(Fraction(0), Fraction(1, 2), True, False)
    assert type(sub.lo) is Fraction and type(sub.hi) is Fraction
    a, b = IntervalSet((sub,)), IntervalSet((plain,))
    for other in (S("[1/4,1] U [2,3]"), S("(-inf,0]"), S("(1/2,inf)"), REALS):
        assert intersect(a, other) == intersect(b, other)
        assert a.issubset(other) == b.issubset(other)
        assert other.issubset(a) == other.issubset(b)
    points = [SubFraction(n, 4) for n in (0, 1, 2, -4)] + [0, Fraction(1, 3)]
    for q in points:
        assert sub.contains(q) == plain.contains(q) == (q in b)
