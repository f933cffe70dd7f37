import random
from fractions import Fraction

import pytest

from onepoint import (
    EMPTY,
    NEG_INF,
    POS_INF,
    CompactComponent,
    Connectifiable,
    DensityCertificate,
    DensityFailure,
    EqualPoints,
    EscapeFilter,
    ExtClosedSet,
    FidelityCertificate,
    FidelityFailure,
    Interval,
    IntervalSet,
    MalformedInterval,
    IsTrivial,
    NotClopenEvidence,
    NotClosedInY,
    NotDisjoint,
    P,
    PInBoth,
    PointOutsideComponent,
    Refused,
    Space,
    TypeI,
    TypeII,
    check_connectifiable,
    choose_escape,
    clopen_falsifier,
    closed_in_extension,
    components,
    connectedness_certificate,
    declared_tails_hold,
    density_check,
    ext_contains,
    hausdorff_witness,
    interior_in,
    intersect,
    intersect_open,
    is_closed_in,
    is_open_in,
    is_open_in_extension,
    least_valid_tails,
    normality_witness,
    parse_set,
    sampling,
    subspace_fidelity,
    union_open,
    verify_connectedness,
    verify_density,
    verify_fidelity,
    verify_hausdorff,
    verify_normality,
)
from onepoint.connectify import (
    ConnectednessCertificate,
    ConnectednessStep,
    _escape_piece,
    _least_tail,
)
from onepoint.intervals import closure_in, difference, is_finite, only, pick_point, union
from onepoint.sampling import (
    clopen_candidates,
    random_disjoint_closed_pair,
    random_open_in,
    random_point_in,
    random_real_open,
)
from onepoint.space import component_index

S = parse_set


def ext_of(text):
    verdict = check_connectifiable(Space(S(text)))
    assert isinstance(verdict, Connectifiable)
    return verdict.extension


# --------------------------------------------------------------------------
# escape filters
# --------------------------------------------------------------------------


def test_choose_escape_examples():
    (c,) = components(Space(S("(0,1)")))
    f = choose_escape(c)
    assert f.side == 1 and f.end == 1 and is_finite(f.end)
    assert f.anchor == Fraction(1, 2)

    (c,) = components(Space(S("[5,inf)")))
    f = choose_escape(c)
    assert f.side == 1 and f.end == POS_INF and f.anchor == 6

    (c,) = components(Space(S("(-inf,0)")))
    f = choose_escape(c)
    assert f.side == 1 and f.end == 0 and is_finite(f.end)
    assert f.anchor == -1

    (c,) = components(Space(S("(-inf,0]")))
    f = choose_escape(c)
    assert f.side == -1 and f.end == NEG_INF and f.anchor == -1

    (c,) = components(Space(S("(0,2]")))
    f = choose_escape(c)
    assert f.side == -1 and f.end == 0 and is_finite(f.end)

    with pytest.raises(CompactComponent):
        choose_escape(components(Space(S("[2,3]")))[0])


def test_filter_element_examples():
    flt = ext_of("[5,inf)").filters[0]
    assert flt.element(3) == S("[9,inf)")

    flt = ext_of("(0,1)").filters[0]
    assert flt.element(0) == S("[1/2,1)")
    assert flt.element(2) == S("[7/8,1)")


def test_filter_elements_closed_in_component():
    for text in ["(0,1)", "[5,inf)", "(-inf,0]", "(0,2]", "(-inf,inf)", "(3,7)"]:
        flt = ext_of(text).filters[0]
        c = flt.component.as_set()
        for n in (0, 1, 2, 5, 16, 64):
            e = flt.element(n)
            assert e and e.issubset(c)
            assert is_closed_in(e, c)


def test_avoid_index_examples_and_scan_oracle():
    flt = ext_of("[5,inf)").filters[0]
    assert flt.avoid_index(20) == 15
    assert flt.avoid_index(6) == 1  # the anchor itself

    flt2 = ext_of("(0,1)").filters[0]
    assert flt2.avoid_index(Fraction(1, 4)) == 0

    rng = random.Random(11)
    for text in ["(0,1)", "[5,inf)", "(-inf,0]", "(0,2]", "(-4,inf)"]:
        flt = ext_of(text).filters[0]
        c = flt.component.as_set()
        for _ in range(40):
            z = random_point_in(c, rng)
            n = flt.avoid_index(z)
            # independent oracle: scan the chain for the first avoiding index
            scan = 0
            while z in flt.element(scan):
                scan += 1
            assert n == scan

    with pytest.raises(PointOutsideComponent):
        ext_of("(0,1)").filters[0].avoid_index(5)


# One space per end kind and side: open right, open right below -inf, open
# left, +inf, -inf; the bounded ones put the end at a non-dyadic point too.
END_KINDS = [
    "(0,1)", "(1/3,7/5)", "(-inf,0)", "(0,2]", "(-3/7,5/3]", "[5,inf)", "(-inf,0]", "(-inf,inf)",
]
EXPONENTS = list(range(1, 70)) + [127, 128, 129, 1000, 2047, 2048, 2049, 4095, 4096]


def near_end_points(flt):
    """Points 2^-k (and 3/4 of that) inside the escape end, or far out toward an infinite end."""
    for k in EXPONENTS:
        eps = Fraction(1, 2**k)
        for gap in (eps, 3 * eps / 4):
            if is_finite(flt.end):
                q = flt.end - gap if flt.side > 0 else flt.end + gap
            else:
                q = flt.anchor + k + gap - 1 if flt.side > 0 else flt.anchor - k - gap + 1
            if flt.component.piece.contains(q):
                yield q


def test_avoid_index_minimal_near_every_end_kind():
    for text in END_KINDS:
        flt = ext_of(text).filters[0]
        for z in near_end_points(flt):
            n = flt.avoid_index(z)
            assert z not in flt.element(n)
            assert n == 0 or z in flt.element(n - 1)
            assert flt.avoid_index(flt.start(n)) == n + 1  # the block's own first point


def test_least_valid_tails_minimal_near_every_end_kind():
    for text in END_KINDS:
        ext = ext_of(text)
        flt = ext.filters[0]
        c = flt.component.as_set()
        for q in near_end_points(flt):
            for closed in (True, False):
                piece = intersect(only(flt.toward_end(q, closed)), c)
                (n,) = least_valid_tails(ext, piece)
                assert flt.element(n).issubset(piece)
                assert n == 0 or not flt.element(n - 1).issubset(piece)
        assert least_valid_tails(ext, c) == (0,)


def test_filter_laws_nested_and_escaping():
    rng = random.Random(12)
    for text in ["(0,1)", "[5,inf)", "(-inf,0)", "(1/3,2]"]:
        flt = ext_of(text).filters[0]
        prev = None
        for n in range(65):
            e = flt.element(n)
            assert e
            if prev is not None:
                assert e.issubset(prev)
            prev = e
        for _ in range(25):
            z = random_point_in(flt.component.as_set(), rng)
            assert z not in flt.element(flt.avoid_index(z))


# --------------------------------------------------------------------------
# verdicts
# --------------------------------------------------------------------------


def test_check_connectifiable_examples():
    v = check_connectifiable(Space(S("(0,1) U [2,3]")))
    assert isinstance(v, Refused) and str(v.witness.piece) == "[2,3]"

    v = check_connectifiable(Space(S("(0,1) U (2,3) U [5,inf)")))
    assert isinstance(v, Connectifiable) and len(v.extension.filters) == 3

    v = check_connectifiable(Space(S("[0,1]")))
    assert isinstance(v, Refused) and str(v.witness.piece) == "[0,1]"


def test_verdict_dichotomy_and_refusal_soundness(corpus200):
    from onepoint import has_compact_component

    for sp in corpus200:
        v = check_connectifiable(sp)
        assert isinstance(v, Refused) == (has_compact_component(sp) is not None)
        if isinstance(v, Refused):
            w = v.witness.as_set()
            assert is_open_in(w, sp.ambient) and is_closed_in(w, sp.ambient)


# --------------------------------------------------------------------------
# extension topology
# --------------------------------------------------------------------------


def test_is_open_in_extension_examples():
    ext = ext_of("(0,1) U [5,inf)")
    assert is_open_in_extension(ext, ext.whole_open())

    bad = TypeII(S("(0,1) U [6,inf)"), (0, 0))
    chk = is_open_in_extension(ext, bad)
    assert not chk and chk.reason == "TraceNotOpen"

    good = TypeII(S("(1/2,1) U (7,inf)"), (1, 2))
    assert is_open_in_extension(ext, good)
    assert declared_tails_hold(ext, good)

    missing = TypeII(S("(1/2,1)"), (1, 0))
    chk = is_open_in_extension(ext, missing)
    assert not chk and chk.reason == "MissingTail" and chk.component == 1


def test_open_algebra_examples():
    ext = ext_of("(0,1) U [5,inf)")
    u = TypeII(S("(1/2,1) U (7,inf)"), (1, 2))
    v = TypeII(S("(3/4,1) U (6,inf)"), (2, 1))
    both = intersect_open(ext, u, v)
    assert isinstance(both, TypeII) and both.tails == (2, 2)
    assert both.trace == S("(3/4,1) U (7,inf)")
    assert is_open_in_extension(ext, both) and declared_tails_hold(ext, both)

    joined = union_open(ext, [u, v])
    assert isinstance(joined, TypeII) and joined.tails == (1, 1)
    assert is_open_in_extension(ext, joined) and declared_tails_hold(ext, joined)

    w = TypeI(S("(0,1/4)"))
    assert union_open(ext, [TypeI(EMPTY), w]) == w
    mixed = intersect_open(ext, w, u)
    assert isinstance(mixed, TypeI) and mixed.trace == intersect(w.trace, u.trace)


def test_topology_laws_generated(extensions):
    rng = random.Random(77)
    from onepoint.sampling import random_open_in, random_p_neighborhood

    for ext in extensions[:12]:
        family = [TypeI(random_open_in(ext.space.ambient, rng)) for _ in range(99)]
        family += [random_p_neighborhood(ext, rng, 10) for _ in range(99)]
        family += [TypeI(EMPTY), ext.whole_open()]
        assert len(family) >= 200
        assert any(isinstance(u, TypeI) and not u.trace for u in family)
        assert any(isinstance(u, TypeII) and u.trace == ext.space.ambient for u in family)
        for u in family:
            assert is_open_in_extension(ext, u)
        for _ in range(220):
            a, b = rng.choice(family), rng.choice(family)
            assert is_open_in_extension(ext, intersect_open(ext, a, b))
            assert is_open_in_extension(ext, union_open(ext, [a, b]))


# --------------------------------------------------------------------------
# density, fidelity, connectedness
# --------------------------------------------------------------------------


def test_density_examples():
    for text in ["(0,1)", "[5,inf)", "(0,1) U (2,3) U [5,inf)"]:
        ext = ext_of(text)
        cert = density_check(ext, samples=100)
        assert cert.samples == 100
        assert verify_density(ext, cert)


def test_fidelity_examples():
    for text in ["(0,1)", "(0,1) U [5,inf)"]:
        ext = ext_of(text)
        cert = subspace_fidelity(ext, samples=100)
        assert verify_fidelity(ext, cert)
        assert is_open_in_extension(ext, TypeI(S("(0,1/2)")))


def test_fidelity_rejects_declared_tails_that_do_not_fit():
    ext = ext_of("[5,inf)")
    forged = TypeII(S("(21,inf)"), (0,))
    assert is_open_in(forged.trace, ext.space.ambient)
    assert not declared_tails_hold(ext, forged)
    assert not verify_fidelity(ext, FidelityCertificate(1, (forged,), ()))


def test_connectedness_certificate():
    ext = ext_of("(0,1)")
    cert = connectedness_certificate(ext)
    assert len(cert.steps) == 1
    assert cert.steps[0].tail == S("[1/2,1)")
    assert verify_connectedness(ext, cert)

    ext3 = ext_of("(0,1) U (2,3) U [5,inf)")
    cert3 = connectedness_certificate(ext3)
    assert len(cert3.steps) == 3
    assert verify_connectedness(ext3, cert3)


def test_connectedness_rejects_steps_off_the_filter():
    ext = ext_of("(0,1) U [5,inf)")
    c0, c1 = (flt.component for flt in ext.filters)
    forged = ConnectednessCertificate(
        (ConnectednessStep(c0, S("[1/4,1/3]")), ConnectednessStep(c1, S("[7,8]")))
    )
    assert not verify_connectedness(ext, forged)
    honest = connectedness_certificate(ext)
    assert not verify_connectedness(ext, ConnectednessCertificate(honest.steps[::-1]))
    assert not verify_connectedness(ext, ConnectednessCertificate(honest.steps[:1]))
    swapped = (ConnectednessStep(c0, honest.steps[1].tail), honest.steps[1])
    assert not verify_connectedness(ext, ConnectednessCertificate(swapped))


def test_clopen_falsifier_examples():
    ext = ext_of("(0,1)")
    out = clopen_falsifier(ext, TypeI(S("(0,1)")))
    assert isinstance(out, NotClopenEvidence)
    assert out.side == "complement" and out.reason == "MissingTail"

    out = clopen_falsifier(ext, ext.whole_open())
    assert isinstance(out, IsTrivial) and out.which == "whole"
    out = clopen_falsifier(ext, TypeI(EMPTY))
    assert isinstance(out, IsTrivial) and out.which == "empty"

    out = clopen_falsifier(ext, TypeI(S("(0,1/2)")))
    assert isinstance(out, NotClopenEvidence)
    assert out.side == "complement" and out.reason == "TraceNotOpen"
    assert out.boundary == Fraction(1, 2)


def test_clopen_falsifier_generated(extensions):
    rng = random.Random(88)
    for ext in extensions[:30]:
        for cand in clopen_candidates(ext, rng, 40):
            out = clopen_falsifier(ext, cand)  # raises InvalidExtension on a real clopen
            assert isinstance(out, (IsTrivial, NotClopenEvidence))


def reference_openness_boundary(x, trace):
    """A point where trace openness fails, found by rebuilding the interior."""
    if not trace.issubset(x):
        return pick_point(difference(trace, x))
    bad = difference(trace, difference(x, closure_in(difference(x, trace), x)))
    return pick_point(bad) if bad else None


def test_open_check_boundary_matches_reference(extensions):
    rng = random.Random(6060)
    for ext in extensions:
        x = ext.space.ambient
        for _ in range(6):
            trace = union(random_open_in(x, rng), random_real_open(rng).closure())
            if rng.random() < 0.5:
                trace = intersect(trace, x)
            chk = is_open_in_extension(ext, TypeI(trace))
            assert chk.boundary == reference_openness_boundary(x, trace)
            assert chk.ok == (chk.boundary is None)
        for cand in clopen_candidates(ext, rng, 10):
            out = clopen_falsifier(ext, cand)
            if isinstance(out, NotClopenEvidence) and out.reason == "TraceNotOpen":
                trace = cand.trace if out.side == "set" else difference(x, cand.trace)
                assert out.boundary == reference_openness_boundary(x, trace)


# --------------------------------------------------------------------------
# Hausdorff witnesses
# --------------------------------------------------------------------------


def test_hausdorff_golden():
    ext = ext_of("[5,inf)")
    u, v = hausdorff_witness(ext, P, Fraction(20))
    assert isinstance(u, TypeII) and u.tails == (16,)
    assert u.trace == S("(21,inf)")
    assert v.trace == S("(19,21)")
    assert verify_hausdorff(ext, P, Fraction(20), u, v)

    ext2 = ext_of("(0,1)")
    u, v = hausdorff_witness(ext2, Fraction(1, 4), Fraction(3, 4))
    assert u.trace == S("(0,1/2)") and v.trace == S("(1/2,1)")

    # with two components, the neighborhood of p swallows the other component
    ext3 = ext_of("(0,1) U [5,inf)")
    z = Fraction(1, 2)
    u, v = hausdorff_witness(ext3, P, z)
    assert S("[5,inf)").issubset(u.trace)
    assert verify_hausdorff(ext3, P, z, u, v)


def test_hausdorff_orientation_and_errors():
    ext = ext_of("[5,inf)")
    u, v = hausdorff_witness(ext, Fraction(20), P)
    assert ext_contains(u, Fraction(20)) and ext_contains(v, P)
    with pytest.raises(EqualPoints):
        hausdorff_witness(ext, P, P)
    with pytest.raises(EqualPoints):
        hausdorff_witness(ext, Fraction(6), Fraction(6))
    with pytest.raises(PointOutsideComponent):
        hausdorff_witness(ext, P, Fraction(1))


def test_hausdorff_random_pairs(extensions):
    rng = random.Random(99)
    for ext in extensions[:40]:
        x = ext.space.ambient
        for _ in range(12):
            y = P if rng.random() < 0.3 else random_point_in(x, rng)
            z = P if rng.random() < 0.3 else random_point_in(x, rng)
            if (y is P and z is P) or (y is not P and z is not P and y == z):
                continue
            u, v = hausdorff_witness(ext, y, z)
            assert verify_hausdorff(ext, y, z, u, v)


def test_verifiers_reject_forged_tails():
    ext = ext_of("(0,1) U [5,inf)")
    u, v = hausdorff_witness(ext, P, Fraction(20))
    assert u.tails == (0, 16) and verify_hausdorff(ext, P, Fraction(20), u, v)
    forged = TypeII(u.trace, (0, 0))
    assert is_open_in_extension(ext, forged)
    assert not verify_hausdorff(ext, P, Fraction(20), forged, v)
    assert not verify_hausdorff(ext, Fraction(20), P, v, forged)

    f, g = ExtClosedSet(True, EMPTY), ExtClosedSet(False, S("[6,7]"))
    u, v = normality_witness(ext, f, g)
    assert verify_normality(ext, f, g, u, v)
    forged = TypeII(u.trace, (0, 0))
    assert is_open_in_extension(ext, forged)
    assert not verify_normality(ext, f, g, forged, v)
    assert not verify_normality(ext, g, f, v, forged)

    assert declared_tails_hold(ext, u)
    assert not declared_tails_hold(ext, TypeII(u.trace, u.tails + (0,)))


# --------------------------------------------------------------------------
# normality witnesses
# --------------------------------------------------------------------------


def test_normality_golden():
    ext = ext_of("[5,inf)")
    f = ExtClosedSet(True, EMPTY)
    g = ExtClosedSet(False, S("[5,7]"))
    u, v = normality_witness(ext, f, g)
    assert isinstance(u, TypeII) and isinstance(v, TypeI)
    assert u.trace == S("(15/2,inf)") and u.tails == (2,)
    assert v.trace == S("[5,15/2)")
    assert verify_normality(ext, f, g, u, v)

    f2 = ExtClosedSet(True, S("[10,inf)"))
    g2 = ExtClosedSet(False, S("[5,6]"))
    u, v = normality_witness(ext, f2, g2)
    assert f2.trace.issubset(u.trace) and g2.trace.issubset(v.trace)
    assert verify_normality(ext, f2, g2, u, v)


def test_normality_delegates_without_p():
    ext = ext_of("(-inf,inf)")
    f = ExtClosedSet(False, S("[0,1]"))
    g = ExtClosedSet(False, S("[2,3]"))
    u, v = normality_witness(ext, f, g)
    assert isinstance(u, TypeI) and isinstance(v, TypeI)
    assert u.trace == S("(-inf,3/2)") and v.trace == S("(3/2,inf)")


def test_normality_p_in_g_swaps():
    ext = ext_of("[5,inf)")
    f = ExtClosedSet(False, S("[5,7]"))
    g = ExtClosedSet(True, EMPTY)
    u, v = normality_witness(ext, f, g)
    assert isinstance(u, TypeI) and isinstance(v, TypeII)
    assert verify_normality(ext, f, g, u, v)


def test_normality_preconditions():
    ext = ext_of("[5,inf)")
    with pytest.raises(PInBoth):
        normality_witness(ext, ExtClosedSet(True, EMPTY), ExtClosedSet(True, EMPTY))
    # a closed-in-X tail block is not closed in the extension: p is in its closure
    assert not closed_in_extension(ext, ExtClosedSet(False, S("[8,inf)")))
    with pytest.raises(NotClosedInY):
        normality_witness(ext, ExtClosedSet(False, S("[8,inf)")), ExtClosedSet(True, EMPTY))
    with pytest.raises(NotClosedInY):
        normality_witness(ext, ExtClosedSet(False, S("(5,6)")), ExtClosedSet(False, EMPTY))
    with pytest.raises(NotDisjoint):
        normality_witness(
            ext, ExtClosedSet(True, S("[5,6]")), ExtClosedSet(False, S("[6,7]"))
        )


def test_normality_random_pairs(extensions):
    rng = random.Random(110)
    count = 0
    for ext in extensions[:30]:
        for _ in range(6):
            f, g = random_disjoint_closed_pair(ext, rng)
            u, v = normality_witness(ext, f, g)
            assert verify_normality(ext, f, g, u, v)
            count += 1
    assert count >= 150


def test_normality_displayed_shape(extensions):
    # p-side witness has the advertised per-component anatomy
    rng = random.Random(111)
    for ext in extensions[:20]:
        f, _g_unused = random_disjoint_closed_pair(ext, rng)
        f = ExtClosedSet(True, f.trace)
        g = ExtClosedSet(False, EMPTY)
        u, v = normality_witness(ext, f, g)
        assert isinstance(u, TypeII) and isinstance(v, TypeI)
        for i, flt in enumerate(ext.filters):
            c = flt.component.as_set()
            u_c = intersect(u.trace, c)
            v_c = intersect(v.trace, c)
            assert not intersect(u_c, v_c)
            assert flt.element(u.tails[i]).issubset(u_c)
            assert intersect(f.trace, c).issubset(u_c)
            assert intersect(g.trace, c).issubset(v_c)


def test_verifiers_are_total_on_malformed_tails():
    ext = ext_of("(0,1) U [5,inf)")
    u, v = hausdorff_witness(ext, P, Fraction(20))
    f, g = ExtClosedSet(True, EMPTY), ExtClosedSet(False, S("[6,7]"))
    nu, nv = normality_witness(ext, f, g)
    for tails in ((0, -1), (0, 16, 0), (0,), (-1, 16)):
        forged = TypeII(u.trace, tails)
        assert not declared_tails_hold(ext, forged)
        assert not verify_hausdorff(ext, P, Fraction(20), forged, v)
        assert not verify_hausdorff(ext, Fraction(20), P, v, forged)
        forged = TypeII(nu.trace, tails)
        assert not declared_tails_hold(ext, forged)
        assert not verify_normality(ext, f, g, forged, nv)
        assert not verify_normality(ext, g, f, nv, forged)
        cert = density_check(ext, 2, 0)
        forged_cert = type(cert)(2, (cert.neighborhoods[0], TypeII(u.trace, tails)), cert.plain_opens)
        assert not verify_density(ext, forged_cert)


def test_clopen_falsifier_rejects_malformed_tails():
    ext = ext_of("(0,1) U [5,inf)")
    for tails in ((0,), (0, -1)):
        with pytest.raises(MalformedInterval):
            clopen_falsifier(ext, TypeII(S("(0,1) U (6,inf)"), tails))


def test_filter_elements_are_blocks_cut_from_the_component(extensions):
    for ext in extensions[:40]:
        for flt in ext.filters:
            c = flt.component.as_set()
            for n in (0, 1, 2, 7, 64):
                block = only(flt.toward_end(flt.start(n), True))
                assert flt.element(n) == intersect(block, c)


# --------------------------------------------------------------------------
# one tail rule: references for the index arithmetic
# --------------------------------------------------------------------------


def materialising_tails_hold(ext, u):
    """Reference: build every declared element and test containment with one
    issubset (the elements lie in distinct components, in line order)."""
    if len(u.tails) != len(ext.filters) or any(t < 0 for t in u.tails):
        return False
    pieces = (iv for flt, n in zip(ext.filters, u.tails) for iv in flt.element(n).pieces)
    return IntervalSet(tuple(pieces)).issubset(u.trace)


def tails_near_least(ext, trace):
    """Every tail at least-1, least and least+1, one component at a time and
    all at once, plus three malformed shapes."""
    least = least_valid_tails(ext, trace) or (0,) * len(ext.filters)
    for d in (-1, 0, 1):
        yield tuple(m + d for m in least)
        for i in range(len(least)):
            yield least[:i] + (least[i] + d,) + least[i + 1 :]
    yield from ((0, -1), (0, 16, 0), (0,))


def test_declared_tails_match_materialising_reference(extensions):
    rng = random.Random(808)
    verdicts = []
    for ext in extensions:
        x = ext.space.ambient
        traces = [nb.trace for nb in density_check(ext, 4, rng.randrange(1000)).neighborhoods]
        for _ in range(3):
            u, _v = hausdorff_witness(ext, P, random_point_in(x, rng))
            traces.append(u.trace)
            f, g = random_disjoint_closed_pair(ext, rng)
            traces.extend(w.trace for w in normality_witness(ext, f, g) if isinstance(w, TypeII))
        for trace in traces:
            for tails in tails_near_least(ext, trace):
                u = TypeII(trace, tails)
                assert max(tails) < 200
                got = declared_tails_hold(ext, u)
                assert got == materialising_tails_hold(ext, u), (ext.space, trace, tails)
                verdicts.append(got)
    assert verdicts.count(True) > 1000 and verdicts.count(False) > 1000


def test_verifiers_never_build_a_declared_tail(monkeypatch):
    ext = ext_of("(0,1) U [5,inf)")
    u, v = hausdorff_witness(ext, P, Fraction(20))
    assert u.tails == (0, 16) and u.trace == S("(0,1) U (21,inf)")
    f, g = ExtClosedSet(True, EMPTY), ExtClosedSet(False, S("[6,7]"))
    around_g = TypeI(S("[5,21)"))

    def refuse(self, n):
        raise AssertionError(f"element({n}) was built")

    monkeypatch.setattr(EscapeFilter, "element", refuse)
    for tails, ok in (((0, 10**10), True), ((0, 2**4096), True), ((0, 15), False)):
        w = TypeII(u.trace, tails)
        assert declared_tails_hold(ext, w) == ok
        assert verify_hausdorff(ext, P, Fraction(20), w, v) == ok
        assert verify_hausdorff(ext, Fraction(20), P, v, w) == ok
        assert verify_normality(ext, f, g, w, around_g) == ok
        assert verify_density(ext, DensityCertificate(1, (w,), ())) == ok
    # tails that fit do not make a trace open: 21 is not interior to [21,inf)
    w = TypeII(S("(0,1) U [21,inf)"), (0, 10**10))
    assert declared_tails_hold(ext, w)
    assert not verify_hausdorff(ext, P, Fraction(20), w, v)
    assert not verify_normality(ext, f, g, w, around_g)
    assert not verify_density(ext, DensityCertificate(1, (w,), ()))


def reference_hausdorff_from_p(ext, z):
    """Reference: the open block toward the escape end, cut to the component,
    its interior in the whole ambient, and the least tail of its escape piece."""
    x = ext.space.ambient
    i = component_index(ext.space, z)
    flt = ext.filters[i]
    c_set = flt.component.as_set()
    start = flt.start(flt.avoid_index(z))
    if flt.side > 0:
        delta = min(Fraction(1), start - z)
        block = flt.toward_end(z + delta, True)
    else:
        delta = min(Fraction(1), z - start)
        block = flt.toward_end(z - delta, True)
    v_trace = intersect(only(Interval(z - delta, z + delta)), c_set)
    near = interior_in(intersect(only(block), c_set), x)
    escape = _escape_piece(flt, near)
    assert escape is not None
    tails = tuple(_least_tail(flt, escape) if j == i else 0 for j in range(len(ext.filters)))
    return TypeII(union(difference(x, c_set), near), tails), TypeI(v_trace)


def points_near_open_ends(ext):
    """Points 2^-k inside every excluded finite endpoint of every component."""
    for flt in ext.filters:
        piece = flt.component.piece
        for k in (1, 64, 4096):
            eps = Fraction(1, 2**k)
            for end, closed, inward in ((piece.lo, piece.lo_closed, 1), (piece.hi, piece.hi_closed, -1)):
                if is_finite(end) and not closed and piece.contains(end + inward * eps):
                    yield end + inward * eps


def test_hausdorff_from_p_matches_interior_reference(extensions):
    rng = random.Random(4096)
    count = 0
    for ext in extensions:
        x = ext.space.ambient
        points = [random_point_in(x, rng) for _ in range(6)] + list(points_near_open_ends(ext))
        for z in points:
            u, v = reference_hausdorff_from_p(ext, z)
            assert hausdorff_witness(ext, P, z) == (u, v)
            assert hausdorff_witness(ext, z, P) == (v, u)
            count += 1
    assert count > 1000


def test_density_check_returns_only_verified_certificates(monkeypatch):
    ext = ext_of("[5,inf)")
    short = TypeII(S("(21,inf)"), (15,))
    assert least_valid_tails(ext, short.trace) == (16,) and is_open_in_extension(ext, short)
    monkeypatch.setattr(sampling, "random_p_neighborhood", lambda ext, rng, max_tail=32: short)
    with pytest.raises(DensityFailure):
        density_check(ext, samples=3)


def test_subspace_fidelity_returns_only_verified_certificates(monkeypatch):
    ext = ext_of("[5,inf)")
    monkeypatch.setattr(sampling, "random_ext_open", lambda ext, rng: TypeI(S("[6,7]")))
    with pytest.raises(FidelityFailure):
        subspace_fidelity(ext, samples=3)
