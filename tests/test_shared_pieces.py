"""Pieces shared by identity are only a shortcut.

The escape sweep, the least tails, the subspace tests and the verifiers take
a piece that is the very object of its component (or of its host) as proof
of what arithmetic would find.  Every answer here is compared with the one
given on an equal copy in which no piece is shared.  The sampled escape
hulls, built from component pieces, are checked to be canonical as built.
"""

import random
from fractions import Fraction

import golden  # noqa: F401 - puts perfbench on the path
import refsets
import workloads
from test_components import endpoint_pool, pool_set, replaced_mid_run, spread

from onepoint import P, Space, check_connectifiable, parse_set
from onepoint.connectify import (
    DensityCertificate,
    ExtClosedSet,
    FidelityCertificate,
    TypeI,
    TypeII,
    _escape_pieces,
    declared_tails_hold,
    density_check,
    hausdorff_witness,
    is_open_in_extension,
    least_valid_tails,
    normality_witness,
    subspace_fidelity,
    verify_density,
    verify_fidelity,
    verify_hausdorff,
    verify_normality,
)
from onepoint.errors import NotASubset
from onepoint.intervals import (
    _intersect_pieces,
    _mk_interval,
    _mk_set,
    difference,
    is_closed_in,
    normalize,
    not_interior_in,
    union,
)
from onepoint.sampling import (
    _escape_hull,
    random_closed_in,
    random_closed_in_extension,
    random_disjoint_closed_pair,
    random_open_in,
    random_p_neighborhood,
    random_point_in,
    random_real_open,
)


def copied(s):
    """An equal set that shares no piece with any other set."""
    return _mk_set(tuple(_mk_interval(p.lo, p.hi, p.lo_closed, p.hi_closed) for p in s.pieces))


def copied_open(u):
    return TypeII(copied(u.trace), u.tails) if isinstance(u, TypeII) else TypeI(copied(u.trace))


def copied_closed(f):
    return ExtClosedSet(f.has_p, copied(f.trace))


def outcome(check, *args):
    """A check's answer, or the class of the input error it raised."""
    try:
        return check(*args)
    except NotASubset:
        return NotASubset


def ext_of(text):
    return check_connectifiable(Space(parse_set(text))).extension


def large_extensions(seeds, sizes=(32, 64)):
    """Extensions of the benchmark's large spaces, built as it builds them."""
    return [
        ext_of(refsets.fmt_set(workloads.large_pieces(random.Random(seed), n)))
        for seed in seeds
        for n in sizes
    ]


def engine_opens(ext, rng):
    """Opens the engine builds: witnesses from the extra point and between
    two points, normality witnesses and sampled certificate opens."""
    x = ext.space.ambient
    opens = []
    for _ in range(3):
        opens += hausdorff_witness(ext, P, random_point_in(x, rng))
        y, z = random_point_in(x, rng), random_point_in(x, rng)
        if y != z:
            opens += hausdorff_witness(ext, y, z)
    f, g = random_disjoint_closed_pair(ext, rng)
    opens += normality_witness(ext, f, g)
    opens += density_check(ext, 3, rng.randrange(100)).neighborhoods
    opens += subspace_fidelity(ext, 3, rng.randrange(100)).extension_opens
    return opens


def extensions_under_test(extensions):
    return list(extensions) + [ext_of(spread(k)) for k in (2, 17, 48)] + large_extensions((7, 8))


def test_sweeps_and_subspace_tests_ignore_sharing(extensions):
    rng = random.Random(2401)
    shortcuts = 0
    for ext in extensions_under_test(extensions):
        x = ext.space.ambient
        pool = endpoint_pool(x)
        traces = [x, random_real_open(rng), random_open_in(x, rng), random_closed_in(x, rng)]
        traces += [replaced_mid_run(x, rng, pool) for _ in range(4)]
        traces += [pool_set(rng, pool, rng.randint(1, 4)) for _ in range(4)]
        traces += [u.trace for u in engine_opens(ext, rng)]
        for trace in traces:
            twin = copied(trace)
            assert list(_escape_pieces(ext, trace)) == list(_escape_pieces(ext, twin)), trace
            assert least_valid_tails(ext, trace) == least_valid_tails(ext, twin), trace
            for check in (not_interior_in, is_closed_in):
                assert outcome(check, trace, x) == outcome(check, twin, x), (check, trace)
            shortcuts += any(p is c for p in trace.pieces for c in x.pieces)
    assert shortcuts > 1000


def test_openness_and_verifiers_ignore_sharing(extensions):
    rng = random.Random(2402)
    for ext in extensions_under_test(extensions):
        x = ext.space.ambient
        opens = engine_opens(ext, rng)
        for u in opens:
            assert is_open_in_extension(ext, u) == is_open_in_extension(ext, copied_open(u)), u
            if isinstance(u, TypeII):
                # A forged tail one below the least that fits is refused on both forms.
                least = least_valid_tails(ext, u.trace)
                for forged in (u, TypeII(u.trace, tuple(max(0, t - 1) for t in least))):
                    want = declared_tails_hold(ext, forged)
                    assert declared_tails_hold(ext, copied_open(forged)) == want, forged
        z = random_point_in(x, rng)
        u, v = hausdorff_witness(ext, P, z)
        for y1, z1, u1, v1 in ((P, z, u, v), (P, z, v, u), (z, P, v, u)):
            want = verify_hausdorff(ext, y1, z1, u1, v1)
            assert verify_hausdorff(ext, y1, z1, copied_open(u1), copied_open(v1)) == want
        f, g = random_disjoint_closed_pair(ext, rng)
        u, v = normality_witness(ext, f, g)
        for u1, v1 in ((u, v), (v, u), (u, u)):
            want = verify_normality(ext, f, g, u1, v1)
            got = verify_normality(ext, copied_closed(f), copied_closed(g), copied_open(u1), copied_open(v1))
            assert got == want
        dens = density_check(ext, 4, rng.randrange(100))
        twin = DensityCertificate(tuple(map(copied_open, dens.neighborhoods)))
        assert verify_density(ext, dens) and verify_density(ext, twin)
        fid = subspace_fidelity(ext, 4, rng.randrange(100))
        twin = FidelityCertificate(
            tuple(map(copied_open, fid.extension_opens)), tuple(map(copied, fid.base_opens))
        )
        assert verify_fidelity(ext, fid) and verify_fidelity(ext, twin)


# --------------------------------------------------------------------------
# sampled hulls are canonical by construction
# --------------------------------------------------------------------------


def reference_hull(flt, n, rng):
    """The hull as a clip of the open block to the component piece."""
    j = rng.randint(1, 8)
    start = flt.start(n)
    near = start - Fraction(flt.side * j, 8)
    return _intersect_pieces(flt.toward_end(near, False), flt.component.piece)


def reference_p_neighborhood(ext, rng, max_tail=32):
    tails = tuple(rng.randint(0, max_tail) for _ in ext.filters)
    trace = normalize(reference_hull(flt, n, rng) for flt, n in zip(ext.filters, tails))
    if rng.random() < 0.5:
        trace = union(trace, random_open_in(ext.space.ambient, rng))
    return TypeII(trace, tails)


def reference_closed_in_extension(ext, rng, include_p):
    trace = random_closed_in(ext.space.ambient, rng)
    if include_p:
        return ExtClosedSet(True, trace)
    hulls = normalize(reference_hull(flt, rng.randint(0, 6), rng) for flt in ext.filters)
    return ExtClosedSet(False, difference(trace, hulls))


def test_hulls_match_the_clip_and_are_canonical(extensions):
    exts = list(extensions) + large_extensions(range(2401, 2409), (32, 64, 128))
    whole = 0
    for i, ext in enumerate(exts):
        for seed in range(8 * i, 8 * i + 8):
            rng, ref = random.Random(seed), random.Random(seed)
            for flt in ext.filters:
                n = rng.randint(0, 40)
                assert ref.randint(0, 40) == n
                hull = _escape_hull(flt, n, rng)
                assert hull == reference_hull(flt, n, ref)
                whole += hull is flt.component.piece
            nb = random_p_neighborhood(ext, rng)
            assert nb == reference_p_neighborhood(ext, ref)
            assert nb.trace == normalize(nb.trace.pieces)
            for include_p in (False, True):
                closed = random_closed_in_extension(ext, rng, include_p)
                assert closed == reference_closed_in_extension(ext, ref, include_p)
                assert closed.trace == normalize(closed.trace.pieces)
    assert whole > 100  # blocks covering their whole component are met
