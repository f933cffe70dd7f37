import math
import random
import re
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
    SizeTooLarge,
    difference,
    interior_in,
    intersect,
    is_closed_in,
    is_open_in,
    midpoint,
    normalize,
    not_interior_in,
    parse_point,
    parse_set,
    pick_point,
    union,
)

from onepoint import intervals
from onepoint.intervals import _eq, _frac, _lt, _parse_endpoint, fmt_value, is_finite
from onepoint.sampling import random_closed_in, random_open_in, random_real_open

import references

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
    assert S("(0,1) U (1,2)").pieces == (Interval(0, 1), Interval(1, 2))


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
        Interval(1, 0)
    with pytest.raises(MalformedInterval):
        Interval(0, 0)  # empty degenerate form
    with pytest.raises(MalformedInterval):
        Interval(NEG_INF, 0, True, True)
    with pytest.raises(MalformedInterval):
        Interval(0, POS_INF, False, True)
    with pytest.raises(MalformedInterval):
        Interval(0.5, 1)


class FractionSub(Fraction):
    pass


class FloatSub(float):
    pass


#: A finite endpoint as given, and what Interval(...) stores for it: a
#: plain Fraction, or the refusal's message.
ENDPOINTS = [
    (Fraction(1, 2), Fraction(1, 2)),
    (FractionSub(1, 2), Fraction(1, 2)),
    (3, Fraction(3)),
    (10**30, Fraction(10**30)),
    (True, "not a rational endpoint: True"),
    (False, "not a rational endpoint: False"),
    (float("nan"), "not a rational endpoint: nan"),
    (0.5, "not a rational endpoint: 0.5"),
    ("1/2", "not a rational endpoint: '1/2'"),
    (None, "not a rational endpoint: None"),
]


def test_endpoint_coercion_table():
    """Python values are read as endpoints by `as_point`'s rule, with the two
    infinities (a float subclass's too) mapped to their sentinels; a refusal
    is one MalformedInterval that shows no other exception."""
    for given, stored in ENDPOINTS:
        for args, at in (((given, 10**31), "lo"), ((-10**31, given), "hi")):
            if isinstance(stored, str):
                with pytest.raises(MalformedInterval, match=f"^{re.escape(stored)}$") as exc:
                    Interval(*args)
                err = exc.value
                assert err.__cause__ is None and (err.__suppress_context__ or not err.__context__)
            else:
                value = getattr(Interval(*args), at)
                assert type(value) is Fraction and value == stored
    for inf in (NEG_INF, FloatSub("-inf")):
        assert Interval(inf, 0).lo is NEG_INF
    for inf in (POS_INF, FloatSub("inf")):
        assert Interval(0, inf).hi is POS_INF
    with pytest.raises(MalformedInterval, match="^lower endpoint cannot be \\+inf$"):
        Interval(POS_INF, 0)
    with pytest.raises(MalformedInterval, match="^upper endpoint cannot be -inf$"):
        Interval(0, NEG_INF)


def test_truthy_closedness_is_stored_as_bool():
    """Closedness is kept as a bool, so a set built from truthy flags equals
    (and hashes as) the parsed set that prints the same."""
    iv = Interval(0, 1, "yes", 0)
    assert (iv.lo_closed, iv.hi_closed) == (True, False)
    assert type(iv.lo_closed) is bool and type(iv.hi_closed) is bool
    built, parsed = IntervalSet((iv,)), S("[0,1)")
    assert str(built) == str(parsed) == "[0,1)"
    assert built == parsed and hash(built) == hash(parsed)
    assert Interval(2, 2, 1, [0]) == Interval(2, 2, True, True)


# --------------------------------------------------------------------------
# boolean algebra examples
# --------------------------------------------------------------------------


def test_set_operation_examples():
    assert intersect(S("(0,2)"), S("[1,3]")) == S("[1,2)")
    assert difference(S("[0,3]"), S("(1,2)")) == S("[0,1] U [2,3]")
    assert union(EMPTY, S("(0,1)")) == S("(0,1)")
    assert references.complement(EMPTY) == REALS
    assert references.complement(S("[0,0]")) == S("(-inf,0) U (0,inf)")


def difference_reference(a, b):
    """Set difference as the intersection with the complement."""
    return intersect(a, references.complement(b))


# The oracle's endpoint pool (tests/test_oracle.py) plus both infinities.
POOL_ENDS = (
    [NEG_INF]
    + [Fraction(n, d) for n, d in ((-2, 1), (-1, 1), (-1, 2), (0, 1), (1, 3), (1, 1), (2, 1))]
    + [POS_INF]
)


def random_pool_set(rng):
    ivs = []
    for _ in range(rng.randint(0, 4)):
        i, j = sorted(rng.sample(range(len(POOL_ENDS)), 2))
        lo, hi = POOL_ENDS[i], POOL_ENDS[j]
        if rng.random() < 0.2 and is_finite(lo):
            ivs.append(Interval(lo, lo, True, True))
        else:
            lo_closed = is_finite(lo) and rng.random() < 0.5
            ivs.append(Interval(lo, hi, lo_closed, is_finite(hi) and rng.random() < 0.5))
    return normalize(ivs)


def test_difference_sweep_matches_reference_on_pool():
    rng = random.Random(12)
    for _ in range(20000):
        a, b = random_pool_set(rng), random_pool_set(rng)
        got = difference(a, b)
        assert got == difference_reference(a, b)
        assert IntervalSet(got.pieces) == got  # canonical


@pytest.mark.parametrize(
    "a, b, want",
    [
        ("[0,1]", "[1,2]", "[0,1)"),  # touching closed ends
        ("[0,1)", "[1,2]", "[0,1)"),
        ("[0,1]", "(1,2]", "[0,1]"),
        ("(1,2]", "[0,1]", "(1,2]"),
        ("[1,2]", "[0,1]", "(1,2]"),
        ("(0,1) U (1,2)", "[1,1]", "(0,1) U (1,2)"),
        ("[0,2]", "[1,1]", "[0,1) U (1,2]"),  # a degenerate piece of b
        ("[0,0] U [1,1] U [2,2]", "[1,1]", "[0,0] U [2,2]"),  # degenerate pieces of a
        ("[0,1]", "[0,0] U [1,1]", "(0,1)"),
        ("[0,3]", "(0,1) U (1,2) U (2,3)", "[0,0] U [1,1] U [2,2] U [3,3]"),
        ("[0,1] U [2,3] U [4,5]", "(1/2,9/2)", "[0,1/2] U [9/2,5]"),  # b spans several pieces
        ("(0,1) U (2,3) U (4,5)", "[1/2,5/2] U [3,4]", "(0,1/2) U (5/2,3) U (4,5)"),
        ("(-inf,0) U (0,inf)", "(-inf,inf)", "empty"),
        ("(-inf,inf)", "(0,1) U [2,3]", "(-inf,0] U [1,2) U (3,inf)"),
        ("(-inf,inf)", "(-inf,0] U [1,inf)", "(0,1)"),
        ("(-inf,inf)", "empty", "(-inf,inf)"),  # an empty b
        ("empty", "[0,1]", "empty"),
    ],
)
def test_difference_pinned_cases(a, b, want):
    assert difference(S(a), S(b)) == S(want) == difference_reference(S(a), S(b))


def test_difference_builds_no_complement(corpus200, monkeypatch):
    pairs = list(corpus_pairs(corpus200, 718))
    expected = [(difference(s, x), difference(x, s)) for s, x in pairs]

    def boom(*args):
        raise AssertionError("difference builds no intermediate set")

    monkeypatch.setattr(intervals, "intersect", boom)
    assert [(difference(s, x), difference(x, s)) for s, x in pairs] == expected


def test_relative_topology_examples():
    assert references.closure_in(S("(0,1/2)"), S("(0,1)")) == S("(0,1/2]")
    assert references.closure_in(S("[1/2,1)"), S("(0,1)")) == S("[1/2,1)")
    assert references.closure_in(S("(0,1)"), S("[0,1]")) == S("[0,1]")
    assert interior_in(S("[1/4,1/2]"), S("(0,1)")) == S("(1/4,1/2)")
    assert interior_in(S("[0,1/2)"), S("[0,1]")) == S("[0,1/2)")
    x = S("(0,1) U [2,3]")
    assert interior_in(x, x) == x
    assert is_closed_in(S("(0,1/3]"), S("(0,1)"))
    assert is_open_in(S("[0,1/2)"), S("[0,1]"))
    assert not is_open_in(S("[1/2,1)"), S("(0,1)"))


def test_subset_precondition():
    with pytest.raises(NotASubset):
        references.closure_in(S("(0,2)"), S("(0,1)"))
    with pytest.raises(NotASubset):
        interior_in(S("[0,1]"), S("(0,1)"))


def reference_interior_in(s, x):
    """The interior as x minus the relative closure of the relative complement."""
    return difference(x, references.closure_in(difference(x, s), x))


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
            pieces.append(Interval(ends[i], ends[i], True, True))
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
        return Interval(a, a, True, True)
    b = draw(fracs)
    if a == b:
        return Interval(a, a, True, True)
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
    cl = references.closure_in(s, x)
    it = interior_in(s, x)
    assert references.closure_in(cl, x) == cl
    assert interior_in(it, x) == it
    assert it.issubset(s) and s.issubset(cl)


@settings(max_examples=120, deadline=None)
@given(interval_sets, interval_sets, interval_sets)
def test_closure_interior_monotone(a0, b0, x):
    small = intersect(a0, x)
    big = union(small, intersect(b0, x))
    assert references.closure_in(small, x).issubset(references.closure_in(big, x))
    assert interior_in(small, x).issubset(interior_in(big, x))


@settings(max_examples=100, deadline=None)
@given(interval_sets)
def test_complement_involution(a):
    assert references.complement(references.complement(a)) == a


@settings(max_examples=120, deadline=None)
@given(interval_sets, interval_sets)
def test_openness_matches_interior_definition(s0, x):
    s = intersect(s0, x)
    assert is_open_in(s, x) == (interior_in(s, x) == s)
    assert is_closed_in(s, x) == (references.closure_in(s, x) == s)


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


def grid_end(text):
    return NEG_INF if text == "-inf" else POS_INF if text == "inf" else Fraction(text)


GRID_ENDS = ["-inf", "-1", "0", "1/2", "2/4", "1", "inf", f"1/{2**4096}"]
GRID_BRACKETS = [("(", ")"), ("(", "]"), ("[", ")"), ("[", "]")]
# (text, lo, hi, lo_closed, hi_closed) for every cell of the grid
GRID = [
    (f"{left}{lo},{hi}{right}", grid_end(lo), grid_end(hi), left == "[", right == "]")
    for lo in GRID_ENDS
    for hi in GRID_ENDS
    for left, right in GRID_BRACKETS
]


def grid_fault(lo, hi, lo_closed, hi_closed):
    """The constructor's message for these ends, by Python's own comparisons,
    in the constructor's order of tests; None for an interval."""
    if lo == POS_INF:
        return "lower endpoint cannot be +inf"
    if hi == NEG_INF:
        return "upper endpoint cannot be -inf"
    if (not is_finite(lo) and lo_closed) or (not is_finite(hi) and hi_closed):
        return "infinite endpoints are never included"
    if hi < lo:
        text = {NEG_INF: "-inf", POS_INF: "inf"}
        return f"empty interval: {text.get(lo, lo)} above {text.get(hi, hi)}"
    if lo == hi and not (lo_closed and hi_closed):
        return "degenerate interval must include both endpoints"
    return None


def test_parse_set_checks_intervals_like_the_constructor(monkeypatch):
    """One check serves both: the same texts, as ParseError from parse_set
    and MalformedInterval from Interval(...); parsing builds no checked
    Interval and converts no exception.  On the grid of every endpoint pair
    under every bracket pair, both accept the same interval or give the same
    message."""
    cases = [
        ("(inf,2)", (POS_INF, 2), "lower endpoint cannot be +inf"),
        ("(0,-inf)", (0, NEG_INF), "upper endpoint cannot be -inf"),
        ("[-inf,0)", (NEG_INF, 0, True), "infinite endpoints are never included"),
        ("(2,1/2)", (2, Fraction(1, 2)), "empty interval: 2 above 1/2"),
        ("(0,0]", (0, 0, False, True), "degenerate interval must include both endpoints"),
    ]
    for text, args, message in cases:
        with pytest.raises(MalformedInterval, match=f"^{re.escape(message)}$"):
            Interval(*args)
    built = {}
    for text, *ends in GRID:
        try:
            built[text] = IntervalSet((Interval(*ends),))
        except MalformedInterval as exc:
            built[text] = str(exc)
        assert grid_fault(*ends) == (built[text] if isinstance(built[text], str) else None), text
    monkeypatch.setattr(Interval, "__init__", lambda self, *a, **k: pytest.fail("checked twice"))
    for text, _, message in cases:
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$") as exc:
            S(text)
        assert exc.value.__cause__ is None and exc.value.__context__ is None
    assert str(S("(0,1) U [2,2] U (3,inf)")) == "(0,1) U [2,2] U (3,inf)"
    for text, *_ in GRID:
        try:
            parsed = S(text)
        except ParseError as exc:
            assert exc.__cause__ is None and exc.__context__ is None
            parsed = str(exc)
        assert parsed == built[text], text
    assert built["[1/2,2/4]"] == S("[1/2,1/2]")
    assert built["(1/2,2/4]"] == "degenerate interval must include both endpoints"
    assert built["(1,1/2]"] == "empty interval: 1 above 1/2"
    assert {b.partition(":")[0] for b in built.values() if isinstance(b, str)} == {
        message.partition(":")[0] for _, _, message in cases
    }


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
    assert normalize([Interval(NEG_INF, 1), Interval(0, POS_INF)]) == REALS
    assert normalize([Interval(0, POS_INF), Interval(NEG_INF, 1)]) == REALS
    assert references.complement(REALS) == EMPTY
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


FMT_POOL = [
    Fraction(0), Fraction(1), Fraction(-1), Fraction(7), Fraction(-3), Fraction(10**40),
    Fraction(-(10**40)), Fraction(1, 2), Fraction(-1, 2), Fraction(22, 7), Fraction(-22, 7),
    TINY, -TINY, 1 - TINY, 1 + TINY, Fraction(-(3**900), 2**4096), Fraction(2**4096 + 1, 2**4096),
]


def reference_render(iv):
    """An interval's text from Fraction's own ``str`` of its ends."""
    def end(v):
        return str(v) if is_finite(v) else "inf" if v > 0 else "-inf"
    left, right = "[" if iv.lo_closed else "(", "]" if iv.hi_closed else ")"
    return f"{left}{end(iv.lo)},{end(iv.hi)}{right}"


def test_fmt_value_and_interval_text_match_fraction_str():
    rng = random.Random(3)
    pool = FMT_POOL + [Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(200)]
    for v in pool:
        assert fmt_value(v) == str(v)
    assert (fmt_value(NEG_INF), fmt_value(POS_INF)) == ("-inf", "inf")
    ends = [NEG_INF, *sorted(set(FMT_POOL)), POS_INF]
    for i, lo in enumerate(ends):
        for hi in ends[i:]:
            for lo_closed in (False, True):
                for hi_closed in (False, True):
                    try:
                        iv = Interval(lo, hi, lo_closed, hi_closed)
                    except MalformedInterval:
                        continue
                    assert str(iv) == reference_render(iv)


def test_fmt_value_past_the_digit_limit_is_size_too_large():
    wide = Fraction(10**4400 + 1, 3)
    for v in (wide, -wide, 1 / wide):
        with pytest.raises(SizeTooLarge, match="^a computed number has too many digits to print$"):
            fmt_value(v)
    with pytest.raises(SizeTooLarge):
        str(Interval(0, wide))


# --------------------------------------------------------------------------
# endpoints built from integers, against Fraction's own arithmetic
# --------------------------------------------------------------------------

big_ints = st.one_of(st.integers(), st.integers(-(2**4200), 2**4200))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(big_ints, big_ints.filter(lambda d: d > 0))
def test_frac_is_the_plain_fraction_in_lowest_terms(n, d):
    got, ref = _frac(n, d), Fraction(n, d)
    assert type(got) is Fraction
    assert got == ref and hash(got) == hash(ref)
    assert got.denominator > 0 and math.gcd(got.numerator, got.denominator) == 1
    assert (got.numerator, got.denominator) == (ref.numerator, ref.denominator)


FINITE_POOL = [v for v in KERNEL_POOL if is_finite(v)] + [Fraction(7, 3), Fraction(-22, 7)]


def test_midpoint_matches_fraction_arithmetic():
    rng = random.Random(2)
    pairs = [(a, b) for a in FINITE_POOL for b in FINITE_POOL]
    pairs += [(Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
               Fraction(rng.randint(-99, 99), rng.randint(1, 99))) for _ in range(500)]
    for a, b in pairs:
        got, ref = midpoint(a, b), (a + b) / 2
        assert type(got) is Fraction and got == ref and str(got) == str(ref)


def reference_pick_point(s):
    """pick_point as Fraction arithmetic: an included lower end, else the
    midpoint, one unit inside a single finite end, or 0."""
    iv = s.pieces[0]
    if iv.lo_closed:
        return iv.lo
    if is_finite(iv.lo) and is_finite(iv.hi):
        return (iv.lo + iv.hi) / 2
    if is_finite(iv.lo):
        return iv.lo + 1
    if is_finite(iv.hi):
        return iv.hi - 1
    return Fraction(0)


def test_pick_point_matches_fraction_arithmetic(corpus200):
    sets = [sp.ambient for sp in corpus200] + [REALS, S("(-inf,-1/3)"), S("(2/7,inf)")]
    for s in sets:
        got, ref = pick_point(s), reference_pick_point(s)
        assert type(got) is Fraction and got == ref and str(got) == str(ref)


POINT_TEXTS = [
    "0", "-0", "007", "-007", "0/7", "-0/7", "6/4", "-6/4", "0012/0008", "4/2", "-22/7",
    str(2**200), f"-1/{2**200}", "9" * 4300, "-" + "9" * 4300, "1/" + "9" * 4300,
]


def random_point_texts(rng, count):
    for _ in range(count):
        sign = rng.choice(["", "-"])
        num = "0" * rng.randint(0, 2) + str(rng.randrange(10 ** rng.randint(1, 30)))
        den = "0" * rng.randint(0, 2) + str(rng.randrange(1, 10 ** rng.randint(1, 30)))
        yield sign + num if rng.random() < 0.2 else f"{sign}{num}/{den}"


def test_parsed_rationals_match_fraction_text():
    for t in POINT_TEXTS + list(random_point_texts(random.Random(5), 500)):
        ref = Fraction(t)
        for got in (_parse_endpoint(t), parse_point(t), S(f"[{t},{t}]").pieces[0].lo):
            assert type(got) is Fraction and got == ref and str(got) == str(ref)


def reference_parse_error(text, what, shown):
    """The message the Fraction(text) parser led to: a part too long for
    int() is reported before a zero denominator."""
    try:
        Fraction(text)
    except ZeroDivisionError:
        return f"zero denominator in {what} {shown!r}"
    except ValueError:
        return f"{what} too long ({len(text)} characters)"
    raise AssertionError(f"{text} parses")


def test_parse_errors_match_fraction_text_parser():
    big = "7" * 4301
    texts = ["1/0", "-1/0", "0/0", "5/000", big, "-" + big, f"1/{big}", f"{big}/0",
             f"3/{'0' * 4301}", f"-{'0' * 4301}/0", f"0/{big}"]
    for t in texts:
        want = reference_parse_error(t, "endpoint", t)
        for parse in (_parse_endpoint, lambda t: S(f"(-inf,{t})"), lambda t: S(f"[{t},inf)")):
            with pytest.raises(ParseError) as exc:
                parse(t)
            assert str(exc.value) == want
        shown = f" {t} "
        with pytest.raises(ParseError) as exc:
            parse_point(shown)
        assert str(exc.value) == reference_parse_error(t, "point", shown)


# --------------------------------------------------------------------------
# the sweeps skip and reuse the pieces an operation leaves unchanged
# --------------------------------------------------------------------------

MANY = " U ".join(["(-inf,-1)"] + [f"[{3 * i},{3 * i + 1})" for i in range(40)] + ["(121,122]"])


def test_untouched_pieces_come_back_as_they_are(monkeypatch):
    """Pieces an intersection or difference leaves alone are the operand's
    own objects, and pieces past the other operand's end are skipped by
    galloping, not by comparing every one of them."""
    x = S(MANY)
    monkeypatch.setattr(intervals, "_intersect_pieces", lambda a, b: pytest.fail("piece rebuilt"))
    gap, past = S("[5/4,2]"), S("[150,160]")
    for got in (intersect(x, REALS), intersect(REALS, x), difference(x, gap), difference(x, past)):
        assert len(got.pieces) == len(x.pieces)
        assert all(a is b for a, b in zip(got.pieces, x.pieces))
    cut = difference(x, S("[1/2,3/4]"))
    assert len(cut.pieces) == len(x.pieces) + 1
    assert all(a is b for a, b in zip(cut.pieces[3:], x.pieces[2:]))

    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return _lt(a, b)

    monkeypatch.setattr(intervals, "_lt", counted)
    assert difference(x, S("[1000,1001]")) == x
    assert not intersect(x, S("[123,124]"))
    assert not intersect(S("[150,151]"), x)
    assert calls < len(x.pieces)


def test_canonical_text_is_not_normalized(monkeypatch):
    texts = [MANY, "(0,1) U (1,2) U [3,3] U (4,inf)", "[-1/2,0) U (0,1/2]", "(-inf,inf)"]
    expected = [normalize(S(t).pieces) for t in texts]
    monkeypatch.setattr(intervals, "normalize", lambda items: pytest.fail("text normalized"))
    for t, want in zip(texts, expected):
        got = S(t)
        assert got == want and str(got) == t
    with pytest.raises(pytest.fail.Exception):
        S("(1,2) U (0,1)")
    with pytest.raises(pytest.fail.Exception):
        S("(0,1] U (1,2)")


# --------------------------------------------------------------------------
# canonical text read in one scan, and a parsed piece printing its own text
# --------------------------------------------------------------------------


def field_text(iv):
    """An interval's text built from its fields, as formatting prints it."""
    left, right = "[" if iv.lo_closed else "(", "]" if iv.hi_closed else ")"
    return f"{left}{fmt_value(iv.lo)},{fmt_value(iv.hi)}{right}"


def scan_inputs(corpus200):
    """Set texts: the corpus, perfbench's `large` spaces of seeds 7 and 8,
    and the byte-identity gate's text list."""
    import golden
    import workloads

    texts = [str(sp) for sp in corpus200]
    for seed in (7, 8):
        rng = random.Random(seed)
        texts += [workloads.rs.fmt_set(workloads.large_pieces(rng, n)) for n in workloads.LARGE_COMPONENTS]
    return texts, [text for text, _ in golden.TEXTS]


def read_by_parts(text, monkeypatch):
    """What the part-by-part reader makes of the text: its set, or its error."""
    with monkeypatch.context() as m:
        m.setattr(intervals, "_scan_canonical", lambda flat: None)
        try:
            return S(text)
        except ParseError as exc:
            return str(exc)


def test_every_parsed_piece_prints_the_text_of_its_fields(corpus200):
    canonical, gate = scan_inputs(corpus200)
    kept = 0
    for text in canonical + gate:
        try:
            s = S(text)
        except ParseError:
            continue
        for p in s.pieces:
            assert str(p) == field_text(p), text
            kept += p._text is not None
        if s.pieces:
            assert str(s) == " U ".join(map(field_text, s.pieces)), text
    assert kept > 1500


def test_the_scan_reads_as_the_part_reader_or_declines(corpus200, monkeypatch):
    """The scan returns the part reader's set, piece by piece, or None.  It
    reads every canonical text and canonical pieces in any order, and
    declines only text that the part reader refuses or reads as a set
    printing otherwise."""
    canonical, gate = scan_inputs(corpus200)
    canonical = [t for t in canonical if t != "empty"]  # parse_set reads the word itself
    gate = [t for t in gate if t.strip() not in ("", "empty")]
    declined = []
    for text in canonical + gate:
        got = intervals._scan_canonical(text.strip())
        want = read_by_parts(text, monkeypatch)
        if got is None:
            assert isinstance(want, str) or str(want) != text, text
            declined.append(text)
            continue
        assert not isinstance(want, str) and len(got.pieces) == len(want.pieces), text
        for a, b in zip(got.pieces, want.pieces):
            assert a.__getstate__() == b.__getstate__(), text
            assert type(a.lo) is type(b.lo) and type(a.hi) is type(b.hi)
    assert not set(canonical) & set(declined)
    must_decline = [
        "(-0,1)", "(007,8)", "[ 1 , 2 ]", "[1 2,3 0]", "[0,1]U[2,3]", "(0,1)  U  (2,3)",
        "[inf,2)", "(0,1) U ", "(0,1/0)", "(0," + "1" * 4301 + ")", "(0,1\u0661)",
    ]
    assert set(must_decline) <= set(declined)
    must_read = ["(2,3) U (0,1)", "(0,1] U (1,2)", "[0,1] U [1,2)", "(0,2) U (1,3)"]
    assert set(must_read) <= set(gate) - set(declined)


def test_a_piece_keeps_its_text_only_when_it_prints_as_read():
    cases = {
        "(0,1/2)": "(0,1/2)", "[-3/4,inf)": "[-3/4,inf)", "(-inf,0]": "(-inf,0]",
        "(0,2/4)": None, "[3/1,4)": None, "(0/5,1)": None, "(-6/4,0)": None,
    }
    for text, kept in cases.items():
        (p,) = S(text).pieces
        assert p._text == kept and str(p) == field_text(p), text
    (a, b) = S("(0,2/4) U (1,3/2)").pieces
    assert (a._text, b._text) == (None, "(1,3/2)")


def test_the_text_slot_is_no_field():
    """Equality, hashing, `repr`, pickling and copying ignore a piece's text,
    and an unpickled or built piece has none."""
    import copy
    import pickle

    (parsed,) = S("(0,1/2]").pieces
    built = Interval(0, Fraction(1, 2), False, True)
    assert parsed._text == "(0,1/2]" and built._text is None
    assert parsed == built and hash(parsed) == hash(built) and repr(parsed) == repr(built)
    assert parsed.__getstate__() == built.__getstate__()
    for twin in (pickle.loads(pickle.dumps(parsed)), copy.deepcopy(parsed), copy.copy(parsed)):
        assert twin == parsed and twin._text is None and str(twin) == "(0,1/2]"
    with pytest.raises(AttributeError):
        parsed._text = "(0,1)"
