"""Self-tests of the benchmark's independent checks.

Each check must accept a record the program really prints and reject the
same record with one claim broken.  Run with

    python3 perfbench/test_checks.py

(pytest collects the same functions).  Nothing here imports onepoint.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import refsets as rs  # noqa: E402
import reffinite as rf  # noqa: E402

SPACE = "(0,1) U [5,inf)"
VERDICT = [
    "connectifiable components=2",
    "filter C#0=(0,1) dir=open_right(1) anchor=1/2",
    "filter C#1=[5,inf) dir=pos_inf anchor=6",
]
HAUSDORFF = ["U = II trace=(0,1) U (21,inf) tails=C#0:0,C#1:16", "V = I trace=(19,21)"]


def checker_with_verdict() -> checks.Checker:
    c = checks.Checker()
    assert c.check("connectify", (SPACE,), 0, VERDICT, "") is None
    return c


def rejects(kind, ctx, lines, rc=0, err="", checker=None) -> bool:
    c = checker or checker_with_verdict()
    return c.check(kind, ctx, rc, lines, err) is not None


def test_true_records_pass():
    c = checker_with_verdict()
    assert c.check("hausdorff", (SPACE, "p", "20"), 0, HAUSDORFF, "") is None
    normal = ["U = II trace=(0,1) U (15/2,inf) tails=C#0:0,C#1:2", "V = I trace=[5,15/2)"]
    assert c.check("normal", (SPACE, "p", "[5,7]"), 0, normal, "") is None
    density = [
        "certificate density samples=1",
        "step 1 tails=C#0:15,C#1:8 trace=(16383/65536,1) U (13,inf) nonempty=true",
    ]
    assert c.check("density", (SPACE,), 0, density, "") is None
    outcome = ["not-clopen side=complement reason=TraceNotOpen boundary=53/4"]
    assert c.check("falsifier", (SPACE, "II trace=(0,1) U (53/4,inf) tails=C#0:12,C#1:8"), 0, outcome, "") is None
    assert c.check("enumerate", ("4",), 0, ["count=355"], "") is None


def test_overlapping_traces_rejected():
    broken = [HAUSDORFF[0], "V = I trace=(19,22)"]
    assert rejects("hausdorff", (SPACE, "p", "20"), broken)


def test_trace_not_open_rejected():
    broken = [HAUSDORFF[0], "V = I trace=[19,21)"]
    assert rejects("hausdorff", (SPACE, "p", "20"), broken)


def test_missing_declared_tail_rejected():
    # The trace holds a tail of C#1, just not the declared element(0) = [6,inf).
    broken = ["U = II trace=(0,1) U (21,inf) tails=C#0:0,C#1:0", HAUSDORFF[1]]
    assert rejects("hausdorff", (SPACE, "p", "20"), broken)


def test_point_outside_its_side_rejected():
    assert rejects("hausdorff", (SPACE, "p", "18"), HAUSDORFF)


def test_wrong_topology_count_rejected():
    assert rejects("enumerate", ("4",), ["count=354"], checker=checks.Checker())
    assert rejects("enumerate", ("5",), ["count=6941"], checker=checks.Checker())


def test_wrong_verdict_rejected():
    c = checks.Checker()
    assert c.check("connectify", ("(0,1) U [2,3]",), 3, ["Refused component=[2,3]"], "") is None
    assert rejects("connectify", ("(0,1) U [2,3]",), ["Refused component=(0,1)"], rc=3, checker=checks.Checker())
    assert rejects("connectify", ("(0,1) U [2,3)",), ["Refused component=[2,3)"], rc=3, checker=checks.Checker())
    bad_dir = [VERDICT[0], VERDICT[1], "filter C#1=[5,inf) dir=neg_inf anchor=6"]
    assert rejects("connectify", (SPACE,), bad_dir, checker=checks.Checker())


def test_false_falsifier_evidence_rejected():
    cand = "II trace=[5,inf) tails=C#0:0,C#1:0"
    assert not rejects("falsifier", (SPACE, cand), ["not-clopen side=set reason=MissingTail component=C#0"])
    assert rejects("falsifier", (SPACE, cand), ["not-clopen side=set reason=MissingTail component=C#1"])
    assert rejects("falsifier", (SPACE, cand), ["not-clopen side=set reason=TraceNotOpen boundary=5"])


def test_search_output_checked():
    fref = checks.FiniteRef()
    base = "{},{0},{0,1}"
    want = sorted(rf.literal(3, t) for t in fref.small(2, rf.parse_literal(base), "T0"))
    good = [f"found={len(want)}"] + want
    assert checks.Checker().check("search", (base, "2", "T0"), 0, good, "") is None
    dropped = [f"found={len(want) - 1}"] + want[1:]
    assert rejects("search", (base, "2", "T0"), dropped, checker=checks.Checker())
    not_dense = "{},{2},{0,1,2}"  # the extra point alone is open
    assert rejects("search", (base, "2", "T0"), good + [not_dense], checker=checks.Checker())


def test_extension_enumeration_matches_families():
    for n in range(4):
        topologies = rf.topologies_by_families(n + 1)
        for base in rf.topologies_by_families(n):
            for ax in rf.AXIOMS:
                brute = {t for t in topologies if rf.is_connectification(n, base, t, ax)}
                assert brute == rf.connectifications(n, base, ax), (n, sorted(base), ax)
    assert [len(rf.topologies_by_families(n)) for n in range(5)] == list(rf.TOPOLOGY_COUNTS[:5])


def _random_set(rng: random.Random) -> list:
    pieces = []
    for _ in range(rng.randint(0, 3)):
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        b = a + Fraction(rng.randint(0, 6), rng.randint(1, 3))
        lc, hc = rng.random() < 0.5, rng.random() < 0.5
        if a == b:
            lc = hc = True
        pieces.append((None if rng.random() < 0.1 else a, None if rng.random() < 0.1 else b, lc, hc))
    return [(lo, hi, lc and lo is not None, hc and hi is not None) for lo, hi, lc, hc in pieces]


def test_reference_algebra_against_sympy():
    try:
        import sympy
    except ImportError:
        return  # SymPy is optional; the other tests do not need it

    def to_sympy(pieces):
        out = sympy.EmptySet
        for lo, hi, lc, hc in pieces:
            a = -sympy.oo if lo is None else sympy.Rational(lo.numerator, lo.denominator)
            b = sympy.oo if hi is None else sympy.Rational(hi.numerator, hi.denominator)
            out = out | sympy.Interval(a, b, not lc, not hc)
        return out

    rng = random.Random(7)
    for _ in range(60):
        a, b = _random_set(rng), _random_set(rng)
        line = rs.Line.over(a, b)
        ma, mb = line.mask(a), line.mask(b)
        sa, sb = to_sympy(a), to_sympy(b)
        assert to_sympy(line.pieces(ma & mb)) == sa & sb
        assert to_sympy(line.pieces(ma | mb)) == sa | sb
        assert to_sympy(line.pieces(line.full & ~ma)) == sympy.S.Reals - sa
        assert to_sympy(line.pieces(line.closure(ma))) == sa.closure


def main() -> int:
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name} {exc}")
            else:
                print(f"PASS {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
