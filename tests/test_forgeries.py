"""A forgery table: every rejection branch of the verifiers, shown saying no.

Each case starts from a true witness or certificate that its verifier
accepts, changes one claim, and asserts that the verifier rejects the
forgery.  The engine's own outputs never hold such a fault, so without
these cases deleting any of the branches would go unnoticed.
"""

from fractions import Fraction

import pytest

from onepoint.connectify import (
    EscapeFilter,
    ExtClosedSet,
    FidelityCertificate,
    TypeI,
    TypeII,
    check_connectifiable,
    connectedness_certificate,
    hausdorff_witness,
    normality_witness,
    subspace_fidelity,
    verify_connectedness,
    verify_fidelity,
    verify_hausdorff,
    verify_normality,
)
from onepoint.intervals import EMPTY, _mk_interval, difference, midpoint, only, parse_set as S, union
from onepoint.space import (
    LocalConnectednessCertificate,
    Space,
    local_connectedness_certificate,
    verify_local_connectedness,
)

TEXT = "(0,1) U (2,3)"  # both filters escape to a finite right end, 1 and 3
SPACE = Space(S(TEXT))
EXT = check_connectifiable(SPACE).extension
F_P = ExtClosedSet(True, S("[1/4,1/2]"))  # the extra point with a box
G = ExtClosedSet(False, S("[5/8,3/4]"))


def fidelity_base_open_not_open():
    cert = subspace_fidelity(EXT, 2, 0)
    forged = FidelityCertificate(cert.extension_opens, (S("(0,1/2]"), *cert.base_opens[1:]))
    return verify_fidelity, (EXT, cert), (EXT, forged)


def hausdorff_open_misses_its_point():
    y, z = Fraction(1, 4), Fraction(5, 2)
    u, v = hausdorff_witness(EXT, y, z)
    forged = TypeI(difference(u.trace, S("[1/4,1/4]")))  # still open
    return verify_hausdorff, (EXT, y, z, u, v), (EXT, y, z, forged, v)


def hausdorff_traces_meet():
    y, z = Fraction(1, 4), Fraction(1, 2)
    u, v = hausdorff_witness(EXT, y, z)
    forged = TypeI(union(u.trace, v.trace))
    return verify_hausdorff, (EXT, y, z, u, v), (EXT, y, z, forged, v)


def normality_traces_meet():
    u, v = normality_witness(EXT, F_P, G)
    forged = TypeI(union(v.trace, S("(0,1/8)")))  # U holds (0,1/8) too
    return verify_normality, (EXT, F_P, G, u, v), (EXT, F_P, G, u, forged)


def normality_both_type_ii():
    """Rejected by the meeting traces, not by the both-type-II branch: two
    opens that are type II as declared each hold a tail of every component,
    and tails of one filter meet, so that branch cannot fire after it."""
    u, v = normality_witness(EXT, F_P, G)
    forged = TypeII(union(v.trace, S("(7/8,1) U (23/8,3)")), (3, 3))
    return verify_normality, (EXT, F_P, G, u, v), (EXT, F_P, G, u, forged)


def normality_p_in_f_without_type_ii():
    u, v = normality_witness(EXT, F_P, G)
    return verify_normality, (EXT, F_P, G, u, v), (EXT, F_P, G, TypeI(u.trace), v)


def normality_p_in_g_without_type_ii():
    u, v = normality_witness(EXT, G, F_P)
    return verify_normality, (EXT, G, F_P, u, v), (EXT, G, F_P, u, TypeI(v.trace))


def _forge_window(closed_lo: bool, widen: bool):
    cert = local_connectedness_certificate(SPACE)
    (c0, w0), rest = cert.entries[0], cert.entries[1:]
    hi = Fraction(5, 2) if widen else w0.hi
    forged = LocalConnectednessCertificate(((c0, _mk_interval(w0.lo, hi, closed_lo, False)), *rest))
    return verify_local_connectedness, (SPACE, cert), (SPACE, forged)


def window_with_a_closed_end():
    return _forge_window(closed_lo=True, widen=False)


def window_trace_is_not_its_component():
    return _forge_window(closed_lo=False, widen=True)  # (0,5/2) holds part of (2,3)


FORGERIES = {
    "fidelity: a base open that is not open": fidelity_base_open_not_open,
    "separated: an open missing its point": hausdorff_open_misses_its_point,
    "separated: traces that meet": hausdorff_traces_meet,
    "normality: traces that meet": normality_traces_meet,
    "normality: both opens type II": normality_both_type_ii,
    "normality: p in F without a type-II U": normality_p_in_f_without_type_ii,
    "normality: p in G without a type-II V": normality_p_in_g_without_type_ii,
    "local connectedness: a window with a closed end": window_with_a_closed_end,
    "local connectedness: a window whose trace is not its component": window_trace_is_not_its_component,
}


@pytest.mark.parametrize("case", FORGERIES.values(), ids=FORGERIES.keys())
def test_verifier_rejects_the_forgery(case):
    verify, truth, forgery = case()
    assert verify(*truth)
    assert not verify(*forgery)


def _short_block(flt, n):
    """A closed block inside the component that stops short of its escape end."""
    a, b = sorted((flt.anchor, midpoint(flt.anchor, flt.end)))
    return only(_mk_interval(a, b, True, True))


def _open_block(flt, n):
    """The block of element(n) without its near end: not closed in the component."""
    return only(flt.toward_end(flt.start(n), False))


@pytest.mark.parametrize(
    "element",
    [lambda flt, n: EMPTY, _open_block, _short_block],
    ids=["empty", "not closed", "short of the end"],
)
def test_connectedness_rejects_a_broken_filter_rule(monkeypatch, element):
    """The certificate's tails must be the filter's own elements, so these
    branches fire only when the filter rule itself breaks: an element that
    is empty, not closed in its component, or not reaching the escape end."""
    assert verify_connectedness(EXT, connectedness_certificate(EXT))
    monkeypatch.setattr(EscapeFilter, "element", element)
    assert not verify_connectedness(EXT, connectedness_certificate(EXT))


def test_the_forgeries_start_from_witnesses_that_hold():
    """The base objects are what the engine builds for this space."""
    assert [f.end for f in EXT.filters] == [1, 3]
    u, v = normality_witness(EXT, F_P, G)
    assert isinstance(u, TypeII) and isinstance(v, TypeI)
