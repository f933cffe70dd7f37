import inspect
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

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
    Extension,
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
    clopen_falsifier,
    closed_in_extension,
    components,
    connectedness_certificate,
    declared_tails_hold,
    density_check,
    ext_contains,
    has_compact_component,
    hausdorff_witness,
    interior_in,
    intersect,
    intersect_open,
    is_closed_in,
    is_compact,
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
from onepoint.compactify import (
    INFINITY,
    CompactExtension,
    TypeInf,
    comp_contains,
    compactification_hausdorff_witness,
    compactify,
)
from onepoint.connectify import (
    ConnectednessCertificate,
    ConnectednessStep,
    OpenCheck,
    _escape_piece,
    _least_tail,
    _open_as_declared,
)
from onepoint import cli
from onepoint.frozen import Frozen
from onepoint.intervals import (
    _mk_set,
    difference,
    inner_point,
    is_finite,
    normalize,
    only,
    pick_point,
    union,
)
from onepoint.sampling import (
    clopen_candidates,
    random_disjoint_closed_pair,
    random_open_in,
    random_point_in,
    random_real_open,
)
from onepoint.records import fmt_check
from onepoint.space import component_index, separate_disjoint_closed

import references

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
    f = EscapeFilter(c)
    assert f.side == 1 and f.end == 1 and is_finite(f.end)
    assert f.anchor == Fraction(1, 2)

    (c,) = components(Space(S("[5,inf)")))
    f = EscapeFilter(c)
    assert f.side == 1 and f.end == POS_INF and f.anchor == 6

    (c,) = components(Space(S("(-inf,0)")))
    f = EscapeFilter(c)
    assert f.side == 1 and f.end == 0 and is_finite(f.end)
    assert f.anchor == -1

    (c,) = components(Space(S("(-inf,0]")))
    f = EscapeFilter(c)
    assert f.side == -1 and f.end == NEG_INF and f.anchor == -1

    (c,) = components(Space(S("(0,2]")))
    f = EscapeFilter(c)
    assert f.side == -1 and f.end == 0 and is_finite(f.end)

    with pytest.raises(CompactComponent):
        EscapeFilter(components(Space(S("[2,3]")))[0])


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
        assert len(cert.neighborhoods) == 100
        assert verify_density(ext, cert)


def test_density_takes_only_neighbourhoods_of_p():
    """An open trace without the extra point is no neighbourhood of it, and
    a type-II open over the same trace, reaching every escape end, is."""
    ext = ext_of("(0,1) U [2,inf)")
    assert not verify_density(ext, DensityCertificate((TypeI(S("(0,1/2)")),)))
    trace = S("(0,1/2) U (3/4,1) U (3,inf)")
    twin = TypeII(trace, least_valid_tails(ext, trace))
    assert verify_density(ext, DensityCertificate((twin,)))
    assert not verify_density(ext, DensityCertificate((twin, TypeI(trace))))


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
    base_open = S("(6,7)")
    assert verify_fidelity(ext, FidelityCertificate((TypeI(base_open),), (base_open,)))
    assert not verify_fidelity(ext, FidelityCertificate((forged,), (base_open,)))


def test_verifiers_take_only_extension_opens():
    """A compactification open is no extension open, even over an open trace
    of the base: on `(0,1) U [2,inf)` the Hausdorff, normality and fidelity
    verifiers refuse a `TypeInf` in place of an extension open and accept
    the `TypeI` twin over the same trace.  (`fmt_witness_pair` cannot write
    a pair holding a `TypeInf`.)"""
    ext = ext_of("(0,1) U [2,inf)")
    y, z = Fraction(1, 2), Fraction(5)
    u, v = hausdorff_witness(ext, y, z)
    assert isinstance(u, TypeI) and isinstance(v, TypeI)
    assert verify_hausdorff(ext, y, z, u, v)
    assert not verify_hausdorff(ext, y, z, TypeInf(u.trace), v)
    assert not verify_hausdorff(ext, y, z, u, TypeInf(v.trace))
    f, g = ExtClosedSet(False, S("[1/4,1/2]")), ExtClosedSet(False, S("[3,4]"))
    u, v = normality_witness(ext, f, g)
    assert isinstance(u, TypeI) and isinstance(v, TypeI)
    assert verify_normality(ext, f, g, u, v)
    assert not verify_normality(ext, f, g, TypeInf(u.trace), v)
    assert not verify_normality(ext, f, g, u, TypeInf(v.trace))
    w = S("(1/4,1/2)")
    assert verify_fidelity(ext, FidelityCertificate((TypeI(w),), (w,)))
    assert not verify_fidelity(ext, FidelityCertificate((TypeInf(w),), (w,)))


def test_hausdorff_verifier_refuses_an_open_over_an_open():
    """An open whose trace is itself an open, not a set, is refused with
    `False`: openness is checked before membership, which could not be
    asked of it."""
    ext = ext_of("(0,1) U [2,inf)")
    y, z = Fraction(1, 2), Fraction(5)
    u, v = hausdorff_witness(ext, y, z)
    assert verify_hausdorff(ext, y, z, u, v)
    assert not verify_hausdorff(ext, y, z, TypeI(u), v)
    assert not verify_hausdorff(ext, y, z, u, TypeI(v))
    assert not verify_hausdorff(ext, z, y, TypeI(v), u)


def test_normality_verifier_refuses_an_open_over_an_open():
    ext = ext_of("(0,1) U [2,inf)")
    f, g = ExtClosedSet(False, S("[1/4,1/2]")), ExtClosedSet(False, S("[3,4]"))
    u, v = normality_witness(ext, f, g)
    assert verify_normality(ext, f, g, u, v)
    assert not verify_normality(ext, f, g, TypeI(u), v)
    assert not verify_normality(ext, f, g, u, TypeI(v))
    f, g = ExtClosedSet(True, EMPTY), ExtClosedSet(False, S("[3,4]"))
    u, v = normality_witness(ext, f, g)
    assert isinstance(u, TypeII) and verify_normality(ext, f, g, u, v)
    assert not verify_normality(ext, f, g, TypeII(u, u.tails), v)


def test_fidelity_verifier_refuses_an_open_over_an_open():
    ext = ext_of("(0,1) U [2,inf)")
    w = S("(1/4,1/2)")
    assert verify_fidelity(ext, FidelityCertificate((TypeI(w),), (w,)))
    assert not verify_fidelity(ext, FidelityCertificate((TypeI(TypeI(w)),), (w,)))
    nb = ext.whole_open()
    assert verify_fidelity(ext, FidelityCertificate((nb,), (w,)))
    assert not verify_fidelity(ext, FidelityCertificate((TypeII(nb, nb.tails),), (w,)))


def test_density_verifier_refuses_tails_that_are_not_naturals():
    """Tails that are no tuple of naturals are refused with `False`, not an
    error: None, a list, a negative or a fractional index."""
    ext = ext_of("(0,1) U [2,inf)")
    nb = ext.whole_open()
    assert verify_density(ext, DensityCertificate((nb,)))
    for tails in (None, [0, 0], (0, -1), (0, Fraction(1, 2)), (0, "1"), (0,)):
        assert not verify_density(ext, DensityCertificate((TypeII(nb.trace, tails),))), tails


def test_fidelity_takes_only_base_sets_as_base_opens():
    """A base open is a set of the base: an extension open in its place is
    refused with `False`, not an error, and the set itself passes."""
    ext = ext_of("(0,1) U [2,inf)")
    w = S("(1/4,1/2)")
    assert verify_fidelity(ext, FidelityCertificate((TypeI(w),), (w,)))
    assert not verify_fidelity(ext, FidelityCertificate((TypeI(w),), (TypeI(w),)))
    wide = S("(1/4,1/2) U (3,inf)")
    twin = TypeII(wide, least_valid_tails(ext, wide))
    assert not verify_fidelity(ext, FidelityCertificate((TypeI(w),), (twin,)))


def test_fidelity_rejects_halves_of_unequal_length():
    ext = ext_of("(0,1) U [5,inf)")
    cert = subspace_fidelity(ext, samples=3)
    assert verify_fidelity(ext, cert)
    for ups, downs in (
        (cert.extension_opens, cert.base_opens[:1]),
        (cert.extension_opens[:1], cert.base_opens),
        (cert.extension_opens, ()),
    ):
        assert not verify_fidelity(ext, FidelityCertificate(ups, downs))


def test_certificates_are_never_empty():
    ext = ext_of("(0,1) U [5,inf)")
    for samples in (0, -3):
        with pytest.raises(ValueError, match="at least one sample"):
            density_check(ext, samples)
        with pytest.raises(ValueError, match="at least one sample"):
            subspace_fidelity(ext, samples)
    assert not verify_density(ext, DensityCertificate(()))
    assert not verify_fidelity(ext, FidelityCertificate((), ()))
    assert verify_density(ext, density_check(ext, 1))
    assert verify_fidelity(ext, subspace_fidelity(ext, 1))


#: Per value class, the fields its constructor works out instead of taking.
#: Every other field is a constructor parameter, in field order.  An
#: extension's filters are no field at all: `Extension.filters` builds them
#: from the space on first read.
DERIVED_FIELDS = {
    "intervals.Interval": (),
    "intervals.IntervalSet": (),
    "space.Component": (),
    "space.Space": (),
    "space.LocalConnectednessCertificate": (),
    "connectify.EscapeFilter": ("side", "anchor", "end"),
    "connectify.Extension": (),
    "connectify.TypeI": (),
    "connectify.TypeII": (),
    "connectify.ExtClosedSet": (),
    "connectify.Connectifiable": (),
    "connectify.Refused": (),
    "connectify.OpenCheck": (),
    "connectify.DensityCertificate": (),
    "connectify.FidelityCertificate": (),
    "connectify.ConnectednessStep": (),
    "connectify.ConnectednessCertificate": (),
    "connectify.IsTrivial": (),
    "connectify.NotClopenEvidence": (),
    "compactify.CompactExtension": (),
    "compactify.CompactRefused": (),
    "compactify.TypeInf": (),
    "finite.FiniteSpace": (),
}


def value_classes(cls=Frozen):
    for sub in cls.__subclasses__():
        yield sub
        yield from value_classes(sub)


def test_derivable_fields_are_not_passed_in():
    """A filter's side, anchor and end, an extension's filters, and every
    property (a certificate's sample count, a check's outcome, a refusal's
    reason, a finite space's full mask) are worked out, never passed in.  A value
    class missing from the table fails, so a new one declares its derived
    fields.  A class on `Frozen`'s constructor takes every slot, so it
    declares none."""
    classes = {
        f"{cls.__module__.removeprefix('onepoint.')}.{cls.__qualname__}": cls
        for cls in value_classes()
    }
    assert sorted(classes) == sorted(DERIVED_FIELDS)
    for name, cls in classes.items():
        derived = DERIVED_FIELDS[name]
        assert set(derived) <= set(cls._fields), name
        if cls.__init__ is Frozen.__init__:
            assert derived == (), name
            continue
        kept = [f for f in cls._fields if f not in derived]
        assert list(inspect.signature(cls).parameters) == kept, name
    # The two slots that are not fields, each written once after `__init__`.
    blanks = {name: set(cls.__slots__) - set(cls._fields) for name, cls in classes.items()}
    assert {name: b for name, b in blanks.items() if b} == {
        "intervals.Interval": {"_text"},
        "connectify.Extension": {"_filters"},
    }
    assert isinstance(Extension.filters, property)
    (c,) = components(Space(S("(0,1)")))
    with pytest.raises(TypeError):
        EscapeFilter(c, -1, Fraction(1, 2))
    with pytest.raises(TypeError):
        Extension(Space(S("(0,1)")), (EscapeFilter(c),))
    assert EscapeFilter(c).end == 1
    assert OpenCheck() and not OpenCheck("MissingTail", 0)


def test_escape_filter_refuses_a_non_escape_chain(corpus200):
    """A filter runs toward an excluded or infinite end from an anchor
    strictly inside the component, all worked out from the component: a
    compact one has no such end and raises, and a forged side or anchor
    cannot be passed in."""
    compact = [c for sp in corpus200 for c in components(sp) if is_compact(c)]
    assert len(compact) == 64
    for comp in compact:
        with pytest.raises(CompactComponent):
            EscapeFilter(comp)
    (c,) = components(Space(S("(0,1)")))
    with pytest.raises(TypeError):
        EscapeFilter(c, 1, Fraction(5))  # element(0) would be [5,1)
    for text, side, anchor, end in [
        ("[0,1)", 1, Fraction(1, 2), 1),
        ("[2,3)", 1, Fraction(5, 2), 3),
        ("(-inf,0]", -1, -1, NEG_INF),
        ("(0,inf)", 1, 1, POS_INF),
        ("(-inf,inf)", 1, 0, POS_INF),
    ]:
        (comp,) = components(Space(S(text)))
        flt = EscapeFilter(comp)
        assert (flt.component, flt.side, flt.anchor, flt.end) == (comp, side, anchor, end)


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
    assert out.side == "complement" and out.check.reason == "MissingTail"

    out = clopen_falsifier(ext, ext.whole_open())
    assert isinstance(out, IsTrivial) and out.which == "whole"
    out = clopen_falsifier(ext, TypeI(EMPTY))
    assert isinstance(out, IsTrivial) and out.which == "empty"

    out = clopen_falsifier(ext, TypeI(S("(0,1/2)")))
    assert isinstance(out, NotClopenEvidence)
    assert out.side == "complement" and out.check.reason == "TraceNotOpen"
    assert out.check.boundary == Fraction(1, 2)


def test_the_falsifier_answers_on_the_trivial_sets():
    """The empty set and the whole extension are trivial; the whole ambient
    with a negative tail is an input error, whichever test runs first."""
    ext = ext_of("(0,1) U [5,inf)")
    assert clopen_falsifier(ext, TypeI(EMPTY)) == IsTrivial("empty")
    assert clopen_falsifier(ext, ext.whole_open()) == IsTrivial("whole")
    with pytest.raises(MalformedInterval) as err:
        clopen_falsifier(ext, TypeII(ext.space.ambient, (0, -1)))
    assert str(err.value) == "type-II set needs one natural tail index per component, got (0, -1)"


def test_the_falsifier_checks_type_ii_tails_once(monkeypatch):
    """The falsifier asks openness first and the trivial tests after it, so
    a type-II candidate's tails are checked once, by the openness check."""
    from onepoint import connectify

    checked = []
    check = connectify._check_tails_shape

    def counted(ext, u):
        checked.append(u)
        return check(ext, u)

    monkeypatch.setattr(connectify, "_check_tails_shape", counted)
    ext = ext_of("(0,1) U [5,inf)")
    u = TypeII(S("(0,1) U (6,inf)"), (0, 0))
    out = clopen_falsifier(ext, u)
    assert isinstance(out, NotClopenEvidence) and out.side == "complement"
    assert checked == [u]


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
    bad = difference(trace, difference(x, references.closure_in(difference(x, trace), x)))
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
            assert bool(chk) == (chk.boundary is None)
        for cand in clopen_candidates(ext, rng, 10):
            out = clopen_falsifier(ext, cand)
            if isinstance(out, NotClopenEvidence) and out.check.reason == "TraceNotOpen":
                trace = cand.trace if out.side == "set" else difference(x, cand.trace)
                assert out.check.boundary == reference_openness_boundary(x, trace)


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


def test_normal_with_p_in_g_checks_the_pair_once(monkeypatch):
    """A `witness normal` request with p in G checks that F and G are closed
    once each, F first: the pair is swapped after the checks, not checked
    again in a second call."""
    from onepoint import connectify

    checked = []
    closed = connectify.closed_in_extension

    def counted(ext, s):
        checked.append(s.has_p)
        return closed(ext, s)

    monkeypatch.setattr(connectify, "closed_in_extension", counted)
    lines = []
    assert cli.main(["witness", "normal", "[5,inf)", "[5,7]", "p"], emit=lines.append) == 0
    assert lines == ["U = I trace=[5,15/2)", "V = II trace=(15/2,inf) tails=C#0:2"]
    assert checked == [False, True]


def test_normal_with_p_in_g_is_the_swapped_pair(extensions):
    """With p in G the witness is the pair built with F and G exchanged, in
    reverse order, on the corpus and the seed-7 `large` spaces."""
    rng = random.Random(3301)
    exts = list(extensions) + [Extension(sp) for sp in perfbench_large_spaces(7)]
    count = 0
    for ext in exts:
        for _ in range(4):
            f, g = random_disjoint_closed_pair(ext, rng)
            if f.has_p:
                f, g = g, f
            g = ExtClosedSet(True, g.trace)  # a closed trace of X with p is closed
            u, v = normality_witness(ext, f, g)
            assert (u, v) == normality_witness(ext, g, f)[::-1], (ext.space, f, g)
            assert isinstance(u, TypeI) and isinstance(v, TypeII)
            assert verify_normality(ext, f, g, u, v)
            count += 1
    assert count > 500


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


def reference_normal_from_p(ext, f, g):
    """Reference: separate every component, G-free ones included, then
    normalize the pieces."""
    tails = least_valid_tails(ext, difference(ext.space.ambient, g.trace))
    u_pieces, v_pieces = [], []
    f_slices = references.reference_slices(ext.space, f.trace)
    g_slices = references.reference_slices(ext.space, g.trace)
    for flt, n_c, f_c, g_c in zip(ext.filters, tails, f_slices, g_slices):
        c = Space(flt.component.as_set())
        u_c, v_c = separate_disjoint_closed(c, union(f_c, flt.element(n_c)), g_c)
        u_pieces.extend(u_c.pieces)
        v_pieces.extend(v_c.pieces)
    return TypeII(normalize(u_pieces), tails), TypeI(normalize(v_pieces))


def boxes_near_open_ends(ext, k, rng, at_most):
    """Up to ``at_most`` closed boxes 2^-k inside an excluded finite
    endpoint of a component, drawn from all such ends: from end - s/2^k to
    end - s/2^(k+1), with s the distance from the end to the component's
    inner point."""
    boxes = []
    for piece in ext.space.ambient.pieces:
        mid = inner_point(piece.lo, piece.hi)
        for end, closed, inward in ((piece.lo, piece.lo_closed, 1), (piece.hi, piece.hi_closed, -1)):
            if is_finite(end) and not closed:
                step = abs(end - mid) / 2**k
                a, b = sorted((end + inward * step, end + inward * step / 2))
                boxes.append(only(Interval(a, b, True, True)))
    return rng.sample(boxes, min(at_most, len(boxes)))


def test_normal_from_p_separates_only_the_components_g_meets(extensions):
    """With p in F the witness equals the reference that separates every
    component, and U holds, as the very same object, the piece of every
    component G misses.  Pairs come from `random_disjoint_closed_pair`
    (with p moved into F), and G also sits 2^-k inside an open end."""
    rng = random.Random(2901)
    exts = list(extensions) + [Extension(sp) for sp in perfbench_large_spaces(7)]
    count = 0
    for ext in exts:
        x = ext.space.ambient
        cases = []
        for _ in range(3):
            f, g = random_disjoint_closed_pair(ext, rng)
            if g.has_p:
                f, g = g, f
            cases.append((ExtClosedSet(True, f.trace), g))
        for k in (1, 64, 4096):
            for box in boxes_near_open_ends(ext, k, rng, 3):
                g = ExtClosedSet(False, box)
                cases.append((ExtClosedSet(True, EMPTY), g))
                if not intersect(cases[0][0].trace, box):
                    cases.append((cases[0][0], g))
        for f, g in cases:
            u, v = normality_witness(ext, f, g)
            assert (u, v) == reference_normal_from_p(ext, f, g), (x, f, g)
            assert verify_normality(ext, f, g, u, v)
            for comp in x.pieces:
                if not intersect(g.trace, only(comp)):
                    assert any(piece is comp for piece in u.trace.pieces), (x, g, comp)
            count += 1
    assert count > 1500


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
        forged_cert = type(cert)((cert.neighborhoods[0], TypeII(u.trace, tails)))
        assert not verify_density(ext, forged_cert)


def test_clopen_falsifier_rejects_malformed_tails():
    ext = ext_of("(0,1) U [5,inf)")
    for tails in ((0,), (0, -1)):
        with pytest.raises(MalformedInterval):
            clopen_falsifier(ext, TypeII(S("(0,1) U (6,inf)"), tails))


def test_open_algebra_rejects_malformed_tails():
    ext = ext_of("(0,1) U [5,inf)")
    t = S("(0,1) U [5,inf)")
    with pytest.raises(MalformedInterval):  # no longer cut short to tails (0,)
        union_open(ext, [TypeII(t, (0,)), TypeII(t, (0, -3))])
    good = TypeII(t, (0, 0))
    for tails in ((0,), (0, -3), (0, 0, 0)):
        bad = TypeII(t, tails)
        for call in (
            lambda: union_open(ext, [good, bad]),
            lambda: union_open(ext, [bad, TypeI(t)]),
            lambda: intersect_open(ext, good, bad),
            lambda: intersect_open(ext, bad, good),
            lambda: intersect_open(ext, bad, TypeI(t)),
        ):
            with pytest.raises(MalformedInterval):
                call()


def test_membership_coerces_only_non_fractions(monkeypatch):
    ext = ext_of("(0,1) U [5,inf)")
    u, v = hausdorff_witness(ext, P, Fraction(20))
    assert ext_contains(v, 20) and ext_contains(u, Fraction(43, 2))
    for bad in (True, 0.5, "1/2", None):
        with pytest.raises(TypeError):
            bad in v.trace
    with pytest.raises(TypeError):
        ext_contains(v, None)

    def no_copies(*args, **kwargs):
        raise AssertionError("a Fraction was copied")

    q = Fraction(20)
    monkeypatch.setattr(Fraction, "__new__", no_copies)
    assert q in v.trace and ext_contains(v, q) and not ext_contains(u, q)


def test_every_point_entry_takes_the_membership_rule():
    """Only ints and Fractions are points, wherever a point is passed in."""
    ext = ext_of("(0,inf)")
    flt = ext.filters[0]
    ce = compactify(Space(S("(0,inf)")))
    u, v = hausdorff_witness(ext, P, Fraction(20))
    entries = (
        lambda q: flt.component.piece.contains(q),
        lambda q: q in v.trace,
        lambda q: ext_contains(v, q),
        lambda q: flt.avoid_index(q),
        lambda q: hausdorff_witness(ext, P, q),
        lambda q: hausdorff_witness(ext, q, P),
        lambda q: hausdorff_witness(ext, q, Fraction(30)),
        lambda q: hausdorff_witness(ext, Fraction(30), q),
        lambda q: compactification_hausdorff_witness(ce, q, INFINITY),
        lambda q: compactification_hausdorff_witness(ce, INFINITY, q),
        lambda q: comp_contains(TypeI(S("(1,30)")), q),
    )
    for entry in entries:
        for bad in (True, 0.5, "1/2", "1e200000"):
            with pytest.raises(TypeError):
                entry(bad)
        assert entry(20) == entry(Fraction(20))
    assert ext_contains(v, 20) and not ext_contains(u, 20)
    assert flt.avoid_index(20) == flt.avoid_index(Fraction(20)) > 0


def test_malformed_tails_are_input_errors():
    """One tails rule for the algebra, the falsifier and the verifiers: a
    tuple of one natural per component.  A list, a fraction or a text tail
    is refused everywhere, never read as a shape nor compared."""
    ext = ext_of("(0,1) U [5,inf)")
    trace = S("(0,1) U (6,inf)")
    for tails in ((0,), (0, -1), (0, 0, 0), [0, 0], (0.5, 0), (0, "1")):
        u = TypeII(trace, tails)
        with pytest.raises(MalformedInterval) as opened:
            is_open_in_extension(ext, u)
        with pytest.raises(MalformedInterval) as falsified:
            clopen_falsifier(ext, u)
        assert str(opened.value) == str(falsified.value)
        with pytest.raises(MalformedInterval):  # whether or not the trace is open
            is_open_in_extension(ext, TypeII(S("(0,1) U [6,inf)"), tails))
        with pytest.raises(MalformedInterval):
            intersect_open(ext, u, ext.whole_open())
        with pytest.raises(MalformedInterval):
            union_open(ext, [TypeI(trace), u])
        assert not _open_as_declared(ext, u)


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
        assert verify_density(ext, DensityCertificate((w,))) == ok
    # tails that fit do not make a trace open: 21 is not interior to [21,inf)
    w = TypeII(S("(0,1) U [21,inf)"), (0, 10**10))
    assert declared_tails_hold(ext, w)
    assert not verify_hausdorff(ext, P, Fraction(20), w, v)
    assert not verify_normality(ext, f, g, w, around_g)
    assert not verify_density(ext, DensityCertificate((w,)))


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


def test_u_around_p_is_the_two_sweep_form(extensions):
    """U around the added point, spliced from the ambient, against the
    `union(difference(...))` form it replaced, on the corpus and the `large`
    spaces with z 2^-k inside open ends (k = 1, 64, 4096): the same set, and
    every other component the ambient's own piece."""
    rng = random.Random(3232)
    large = [Extension(sp) for sp in perfbench_large_spaces(7)]
    count = 0
    for ext in list(extensions) + large:
        x = ext.space.ambient
        points = [random_point_in(x, rng) for _ in range(4)] + list(points_near_open_ends(ext))
        if len(x.pieces) > 8:
            points = rng.sample(points, 24)
        for z in points:
            u, v = hausdorff_witness(ext, P, z)
            i = component_index(ext.space, z)
            flt = ext.filter_at(i)
            # V runs to the block's near end on the escape side
            edge = v.trace.pieces[0].hi if flt.side > 0 else v.trace.pieces[0].lo
            ref = references.u_around_p(x, i, flt.toward_end(edge, False))
            assert u.trace == ref and str(u.trace) == str(ref), (x, z)
            others = [j for j in range(len(x.pieces)) if j != i]
            assert all(u.trace.pieces[j] is x.pieces[j] is ref.pieces[j] for j in others)
            count += 1
    assert count > 1000


def test_hausdorff_from_p_arithmetic_is_the_size_of_its_answer(monkeypatch):
    """Running time is bounded by the input size, not by 1/distance to an
    open end: with z 2^-4096 inside an open end, on either side and in the
    radius-1 case, no integer handed to `_frac` is wider than the widest
    integer of z or of an endpoint of the witness, plus a small slack, so
    no reduction is wider than its answer.  Reducing products of two such
    numbers (about 8,200 bits here) or three (about 12,300) fails it."""
    from onepoint import connectify, intervals

    widths = []
    frac = intervals._frac

    def recording(n, d):
        widths.append(max(n.bit_length(), d.bit_length()))
        return frac(n, d)

    eps = Fraction(1, 2**4096)
    large = perfbench_large_spaces(7)[0].ambient.pieces
    mid = large[len(large) // 2]
    cases = [
        ("(0,1)", 1 - eps, 1, False),  # escapes right, toward 1
        ("(0,1]", eps, -1, False),  # escapes left, toward 0
        ("(0,10)", eps, 1, True),  # start is 5, so the radius is 1
        (str(_mk_set(large)), mid.hi - (mid.hi - mid.lo) / 2 * eps, 1, False),
    ]
    for text, z, side, radius_one in cases:
        ext = ext_of(text)
        flt = ext.filters[component_index(ext.space, z)]
        start = flt.start(flt.avoid_index(z))
        assert flt.side == side and (abs(start - z) >= 1) == radius_one
        widths.clear()
        with monkeypatch.context() as m:
            m.setattr(connectify, "_frac", recording)
            m.setattr(intervals, "_frac", recording)
            u, v = hausdorff_witness(ext, P, z)
        assert verify_hausdorff(ext, P, z, u, v)
        ends = [e for w in (u, v) for iv in w.trace.pieces for e in (iv.lo, iv.hi)]
        answer = [z] + [e for e in ends if is_finite(e)]
        bound = 16 + max(max(abs(q.numerator), q.denominator).bit_length() for q in answer)
        assert bound > 4096 and widths and max(widths) <= bound, (text, max(widths), bound)

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


def test_check_connectifiable_builds_the_components_once(corpus200, monkeypatch):
    """At most once: the verdict scans the pieces for a compact one once
    and builds no component list and no filter.  The first read of
    `filters` builds the components once and each filter once, in line
    order, and later reads build nothing; a refused space builds neither."""
    import onepoint.connectify as connectify_module
    import onepoint.space as space_module

    spaces = corpus200[:60]
    expected = [check_connectifiable(sp) for sp in spaces]
    filters = [v.extension.filters if isinstance(v, Connectifiable) else None for v in expected]
    calls, built, scans = [], [], []

    def counted(sp):
        calls.append(sp)
        return components(sp)

    def counted_scan(sp):
        scans.append(sp)
        return has_compact_component(sp)

    init = EscapeFilter.__init__

    def counted_filter(self, component):
        built.append(component)
        init(self, component)

    for module in (connectify_module, space_module):
        monkeypatch.setattr(module, "components", counted)
    monkeypatch.setattr(EscapeFilter, "__init__", counted_filter)
    monkeypatch.setattr(connectify_module, "has_compact_component", counted_scan)
    for sp, verdict, want in zip(spaces, expected, filters):
        calls.clear()
        built.clear()
        scans.clear()
        got = check_connectifiable(sp)
        assert got == verdict and calls == [] and built == [] and scans == [sp]
        if want is None:
            continue
        ext = got.extension
        assert ext.filters == want and ext.filters is ext.filters and ext == verdict.extension
        assert calls == [sp] and built == list(components(sp))
    assert sum(f is None for f in filters) > 10 and sum(f is not None for f in filters) > 10


def test_a_witness_builds_only_the_filters_it_reads(monkeypatch):
    """On 128 components, `witness hausdorff` between two base points
    builds no filter; from p it builds z's filter alone, once for the
    witness and once for its verification, and `witness normal` with p in F
    builds only the filter of the component G meets.  `connectify` builds
    each filter once, in line order."""
    space = perfbench_large_spaces(7)[-1]
    pieces = space.ambient.pieces
    assert len(pieces) == 128
    y, z, q = (str(inner_point(pieces[i].lo, pieces[i].hi)) for i in (3, 90, 64))
    lo, hi = pieces[90].lo, pieces[90].hi
    g = f"[{lo + (hi - lo) / 3},{lo + (hi - lo) / 2}]"  # closed, inside C#90
    built = []
    init = EscapeFilter.__init__

    def counted_filter(self, component):
        built.append(component.index)
        init(self, component)

    monkeypatch.setattr(EscapeFilter, "__init__", counted_filter)
    for argv, want in [
        (["witness", "hausdorff", "--", str(space), y, z], []),
        (["witness", "hausdorff", "--", str(space), y, "p"], [3, 3]),
        (["witness", "hausdorff", "--", str(space), "p", q], [64, 64]),
        (["witness", "normal", "--", str(space), "p", g], [90] * 3),
        (["connectify", "--", str(space)], list(range(128))),
    ]:
        built.clear()
        lines = []
        assert cli.main(argv, emit=lines.append) == 0 and lines
        assert built == want, argv


def test_an_extension_is_a_function_of_its_space_alone(corpus200):
    """Equality and hashing read the space, whether or not the filters were
    read; `repr` shows the filters; a pickled extension comes back equal,
    with its filters built again on first read.  A space with a compact
    component raises what `EscapeFilter` raises for the first one."""
    import pickle

    refused = 0
    for sp in corpus200:
        comp = has_compact_component(sp)
        if comp is not None:
            refused += 1
            with pytest.raises(CompactComponent) as want:
                EscapeFilter(comp)
            with pytest.raises(CompactComponent) as got:
                Extension(sp)
            assert str(got.value) == str(want.value) == f"{comp.piece} has no non-compact end"
            assert got.value.component == want.value.component == comp
            continue
        fresh, read = Extension(sp), Extension(sp)
        filters = read.filters
        assert fresh == read and hash(fresh) == hash(read)
        assert fresh._filters is None and read._filters is filters
        assert repr(fresh) == f"Extension(space={sp!r}, filters={filters!r})"
        twin = pickle.loads(pickle.dumps(read))
        assert twin == read and twin._filters is None and twin.filters == filters
    assert refused > 10


def perfbench_large_spaces(seed):
    """The spaces of 32 to 128 components that perfbench's `large` workload draws."""
    path = str(Path(__file__).resolve().parents[1] / "perfbench")
    if path not in sys.path:
        sys.path.insert(0, path)
    import workloads

    rng = random.Random(seed)
    return [
        Space(S(workloads.rs.fmt_set(workloads.large_pieces(rng, n))))
        for n in workloads.LARGE_COMPONENTS
    ]


def test_verdict_builds_each_filter_unchecked(corpus200):
    """The verdict's extension holds the filter EscapeFilter gives for each
    component, in line order."""
    spaces = list(corpus200) + perfbench_large_spaces(7) + perfbench_large_spaces(8)
    expected = [
        None if any(map(is_compact, components(sp))) else tuple(map(EscapeFilter, components(sp)))
        for sp in spaces
    ]
    for sp, filters in zip(spaces, expected):
        verdict = check_connectifiable(sp)
        if filters is None:
            assert isinstance(verdict, Refused)
        else:
            assert verdict.extension.filters == filters
    assert sum(f is not None for f in expected) > 100


def test_extension_is_a_function_of_its_space(corpus200):
    """Extension(space) raises exactly when a component is compact, and is
    otherwise the verdict's extension."""
    spaces = list(corpus200) + perfbench_large_spaces(7) + perfbench_large_spaces(8)
    refused = 0
    for sp in spaces:
        comp = has_compact_component(sp)
        assert comp == next(filter(is_compact, components(sp)), None)
        if comp is not None:
            refused += 1
            with pytest.raises(CompactComponent):
                Extension(sp)
        else:
            assert Extension(sp) == check_connectifiable(sp).extension
    assert refused == 49 and len(spaces) - refused > 100


# --------------------------------------------------------------------------
# endpoint arithmetic from integers, against Fraction's own operators
# --------------------------------------------------------------------------


def reference_start(flt, n):
    if is_finite(flt.end):
        return flt.end - (flt.end - flt.anchor) / 2**n
    return flt.anchor + n if flt.side > 0 else flt.anchor - n


def reference_index_past(flt, q, included):
    """The Fraction form of the tail rule: a floor or ceiling toward an
    infinite end, else the bit lengths of span/gap in lowest terms."""
    if not is_finite(flt.end):
        need = q - flt.anchor if flt.side > 0 else flt.anchor - q
        return max(0, math.ceil(need) if included else math.floor(need) + 1)
    if flt.side > 0:
        span, gap = flt.end - flt.anchor, flt.end - q
    else:
        span, gap = flt.anchor - flt.end, q - flt.end
    ratio = span / gap
    num, den = ratio.numerator, ratio.denominator
    n = max(0, num.bit_length() - den.bit_length())
    scaled = den << n
    return n + 1 if scaled < num or (scaled == num and not included) else n


def assert_same_fraction(got, ref):
    assert type(got) is Fraction and got == ref and str(got) == str(ref)


def test_start_matches_fraction_arithmetic(extensions):
    filters = [ext_of(text).filters[0] for text in END_KINDS]
    assert {(flt.side, is_finite(flt.end)) for flt in filters} == {
        (1, True), (1, False), (-1, True), (-1, False)
    }
    for flt in filters:
        for n in list(range(65)) + [4096]:
            assert_same_fraction(flt.start(n), reference_start(flt, n))
    for ext in extensions[:40]:
        for flt in ext.filters:
            for n in (0, 1, 2, 7, 64):
                assert_same_fraction(flt.start(n), reference_start(flt, n))


def test_index_past_matches_fraction_arithmetic(extensions):
    rng = random.Random(77)
    cases = [(flt, q) for text in END_KINDS for flt in ext_of(text).filters
             for q in near_end_points(flt)]
    for ext in extensions[:60]:
        for flt in ext.filters:
            c = flt.component.as_set()
            cases += [(flt, random_point_in(c, rng)) for _ in range(4)]
            cases += [(flt, flt.start(n)) for n in (0, 3)]
    for flt, q in cases:
        for included in (True, False):
            assert flt._index_past(q, included) == reference_index_past(flt, q, included)


def reference_anchor(p):
    if is_finite(p.lo) and is_finite(p.hi):
        return (p.lo + p.hi) / 2
    if is_finite(p.lo):
        return p.lo + 1
    if is_finite(p.hi):
        return p.hi - 1
    return Fraction(0)


def test_choose_escape_anchors_match_fraction_arithmetic(corpus200):
    count = 0
    for space in corpus200:
        for comp in components(space):
            if not is_compact(comp):
                assert_same_fraction(EscapeFilter(comp).anchor, reference_anchor(comp.piece))
                count += 1
    assert count > 200


FRACTION_OPERATORS = [
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
]


def test_endpoint_arithmetic_needs_no_fraction_operator(corpus200, monkeypatch):
    """Parsing, verdicts, check records, filter starts, tail indices, the sampled
    certificates and their samplers, Hausdorff witnesses in the extension and
    in the compactification, and set difference answer with every Fraction
    arithmetic operator disabled, and answer as before."""
    rng = random.Random(10)
    comp_rng = random.Random(11)
    inputs = []
    for space in corpus200:
        comp_points = [random_point_in(space.ambient, comp_rng) for _ in range(3)]
        verdict = check_connectifiable(space)
        if not isinstance(verdict, Connectifiable):
            inputs.append((space, (), (), comp_points))
            continue
        ext = verdict.extension
        points = [random_point_in(space.ambient, rng) for _ in range(3)]
        traces = [space.ambient] + [hausdorff_witness(ext, P, z)[0].trace for z in points]
        inputs.append((space, points, traces, comp_points))

    def answers():
        out = []
        for seed, (space, points, traces, comp_points) in enumerate(inputs):
            verdict = check_connectifiable(space)
            out.append((parse_set(str(space)), verdict, fmt_check(space)))
            ce = compactify(space)
            if isinstance(ce, CompactExtension):
                out.append([compactification_hausdorff_witness(ce, INFINITY, z) for z in comp_points])
                out.append([compactification_hausdorff_witness(ce, z, INFINITY) for z in comp_points])
            if isinstance(verdict, Connectifiable):
                ext = verdict.extension
                out.append([flt.start(n) for flt in ext.filters for n in (0, 1, 9, 64, 4096)])
                out.append([ext.filters[component_index(space, z)].avoid_index(z) for z in points])
                out.append([least_valid_tails(ext, trace) for trace in traces])
                out.append(density_check(ext, 4, seed))
                out.append(subspace_fidelity(ext, 4, seed))
                rng = random.Random(seed)
                out.append(clopen_candidates(ext, rng, 4))
                out.append([random_disjoint_closed_pair(ext, rng) for _ in range(2)])
                out.append([hausdorff_witness(ext, P, z) for z in points])
                out.append([hausdorff_witness(ext, z, P) for z in points])
                out.append([difference(space.ambient, t) for t in traces])
                out.append([difference(t, random_real_open(rng)) for t in traces])
        return out

    expected = answers()

    def refuse(*args):
        raise AssertionError("a Fraction operator was used")

    for name in FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, name, refuse)
    with pytest.raises(AssertionError):
        Fraction(1) + 1
    assert answers() == expected
