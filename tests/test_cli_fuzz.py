"""Fuzz the command line: well-formed requests for every verb from the input
grammar, and the same requests with one small corruption.

Whatever the input, ``cli.main`` must return 0, 2 or 3, raise nothing, and
write at most one line to stderr.  Generated numbers stay at a few thousand
digits, so no request asks for a huge allocation.
"""

import contextlib
import io
import re
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from onepoint import cli
from onepoint.finite import AXIOMS, MAX_POINTS, enumerate_topologies, topology_literal

NUMBERS = ["0", "1", "-1", "1/2", "-3/4", "2", "5", "7/3", "10", "-10", "1/1000"]
LITERALS = sorted(topology_literal(t) for n in range(5) for t in enumerate_topologies(n))[::7]
LONG = "4" * 4400  # past the 4300-digit parse limit
WIDE = "9" * 3000 + "/1" + "0" * 3000  # parses, but a witness near it outgrows the print limit

numbers = st.sampled_from(NUMBERS)


@st.composite
def interval_text(draw):
    a, b = sorted((draw(numbers), draw(numbers)), key=Fraction)
    lo = draw(st.sampled_from([a, "-inf"]))
    hi = draw(st.sampled_from([b, "inf"]))
    left = "(" if lo == "-inf" else draw(st.sampled_from("[("))
    right = ")" if hi == "inf" else draw(st.sampled_from("])"))
    return f"{left}{lo},{hi}{right}"


set_text = st.lists(interval_text(), min_size=1, max_size=4).map(" U ".join) | st.just("empty")
point_text = numbers | st.just("p") | st.just(WIDE)
closed_text = set_text | st.just("p") | set_text.map("p+{}".format)


SPACE_VERBS = [("components",), ("check",), ("connectify",), ("compactify",)]
ENUMERATE_SIZES = ["-1", "0", "3", "4", "7"]


def requests():
    """(verb words, free-text positionals, trailing fixed-choice arguments) for
    every verb that reads input; selftest reads none."""
    none = st.just(())
    return st.one_of(
        st.tuples(st.sampled_from(SPACE_VERBS), st.tuples(set_text), none),
        st.tuples(
            st.just(("witness", "hausdorff")), st.tuples(set_text, point_text, point_text), none
        ),
        st.tuples(
            st.just(("witness", "normal")), st.tuples(set_text, closed_text, closed_text), none
        ),
        st.tuples(
            st.just(("finite", "search")),
            st.tuples(st.sampled_from(LITERALS)),
            st.tuples(st.sampled_from(AXIOMS)),
        ),
        st.tuples(
            st.just(("finite", "enumerate")), none, st.tuples(st.sampled_from(ENUMERATE_SIZES))
        ),
    )


KINDS = ("bracket", "U", "zero", "long", "big token", "delete", "insert")
FILLERS = ["U", " U ", ",", "/", "-", "p", "{", "}", "9"]  # what an "insert" puts in


def spots(token, kind):
    """Where a corruption of this kind can go in the token."""
    if kind == "bracket":
        return [i for i, c in enumerate(token) if c in "[]()"]
    if kind in ("zero", "long", "big token"):
        return [i for i, c in enumerate(token) if c.isdigit()]
    return list(range(len(token) + 1))


def corrupt(token, kind, i, filler="U"):
    """One corruption at position i: a dropped bracket, a stray U, a zero
    denominator, an oversized endpoint, an oversized topology token, or one
    character deleted or inserted."""
    if kind in ("bracket", "delete"):
        return token[:i] + token[i + 1 :]
    if kind == "zero":
        return token[: i + 1] + "/0" + token[i + 1 :]
    if kind == "long":
        return token[:i] + LONG + token[i + 1 :]
    if kind == "big token":
        return token[:i] + str(MAX_POINTS) + token[i + 1 :]
    return token[:i] + ("U" if kind == "U" else filler) + token[i:]


@st.composite
def mutated(draw, token):
    kind = draw(st.sampled_from(KINDS))
    places = spots(token, kind)
    if not places:
        return token
    filler = draw(st.sampled_from(FILLERS))
    return corrupt(token, kind, draw(st.sampled_from(places)), filler)


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv, emit=[].append)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(requests(), st.data())
def test_cli_survives_mutated_requests(request, data):
    words, free, fixed = request
    run([*words, "--", *free, *fixed])
    if free:
        k = data.draw(st.integers(0, len(free) - 1))
        bad = list(free)
        bad[k] = data.draw(mutated(bad[k]))
        run([*words, "--", *bad, *fixed])


FIXED = [
    (("components",), ("(0,1] U (1,2)",), ()),
    (("check",), ("(0,1) U [2,3]",), ()),
    (("connectify",), ("(0,1) U [5,inf)",), ()),
    (("witness", "hausdorff"), ("(0,1) U [5,inf)", "p", "20"), ()),
    (("witness", "hausdorff"), ("(0,1)", "p", WIDE), ()),
    (("witness", "normal"), ("(0,1) U [5,inf)", "p+[6,7]", "[5,11/2]"), ()),
    (("compactify",), ("[0,1] U (2,3)",), ()),
    (("finite", "search"), ("{},{0},{0,1}",), ("T0",)),
]


def test_cli_survives_each_corruption_everywhere():
    for words, free, fixed in FIXED:
        run([*words, "--", *free, *fixed])
        for k, token in enumerate(free):
            for kind in KINDS:
                for i in spots(token, kind)[:24]:
                    bad = list(free)
                    bad[k] = corrupt(token, kind, i)
                    run([*words, "--", *bad, *fixed])


ALL_LITERALS = [topology_literal(t) for n in range(5) for t in enumerate_topologies(n)]


def is_topology(masks):
    """The family scanned here rather than by ``validate_topology``: it holds
    the empty set and the set of every point named (the literal's point set),
    and the union and intersection of any two of its sets."""
    family = set(masks)
    full = (1 << max(family, default=0).bit_length()) - 1
    return {0, full} <= family and all(
        (a | b) in family and (a & b) in family for a in family for b in family
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ALL_LITERALS), st.data(), st.sampled_from(AXIOMS))
def test_literal_with_an_open_dropped_exits_2_exactly_when_not_a_topology(literal, data, axiom):
    groups = re.findall(r"\{[0-9,]*\}", literal)
    k = data.draw(st.integers(0, len(groups) - 1))
    kept = groups[:k] + groups[k + 1 :]
    masks = [sum(1 << int(x) for x in g[1:-1].split(",") if x) for g in kept]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["finite", "search", ",".join(kept), axiom], emit=[].append)
    assert code == (0 if is_topology(masks) else 2), (kept, axiom, err.getvalue())
    assert err.getvalue().count("\n") == (code == 2), err.getvalue()
