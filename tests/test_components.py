"""Point location and per-component escape pieces, against the per-component
formulas they replaced, plus sweep counts that show every per-component
loop stays linear in the number of components, and verifying a witness from
the extra point sub-linear."""

import random
import re
import sys
from fractions import Fraction

import pytest

from onepoint import (
    EqualPoints,
    Interval,
    P,
    PointOutsideComponent,
    Space,
    check_connectifiable,
    cli,
    components,
    density_check,
    intersect,
    local_connectedness_certificate,
    only,
    parse_set,
    split_points,
    verify_local_connectedness,
)
from onepoint import intervals
from onepoint.connectify import _escape_piece, _escape_pieces, hausdorff_witness, verify_hausdorff
from onepoint.sampling import random_open_in, random_point_in, random_real_open
from onepoint.space import LocalConnectednessCertificate, component_index

import references

S = parse_set


def reference_index(space, z):
    """A linear scan over the components."""
    for c in components(space):
        if c.piece.contains(z):
            return c.index
    return None


def reference_window_check(space, cert):
    """The old replay: every window against the whole ambient set."""
    if tuple(c for c, _ in cert.entries) != components(space):
        return False
    return all(
        not (w.lo_closed or w.hi_closed) and intersect(only(w), space.ambient) == c.as_set()
        for c, w in cert.entries
    )


def reference_escape_pieces(ext, trace):
    """The per-component formula the sweep replaced: slice, then look at the end."""
    return list(map(_escape_piece, ext.filters, references.reference_slices(ext.space, trace)))


def pool_set(rng, pool, count):
    """A canonical set of up to `count` random intervals with ends from `pool`."""
    ivs = []
    for _ in range(count):
        lo, hi = sorted(rng.sample(pool, 2))
        if lo == hi:
            continue
        lo_c = isinstance(lo, Fraction) and rng.random() < 0.5
        hi_c = isinstance(hi, Fraction) and rng.random() < 0.5
        ivs.append(Interval(lo, hi, lo_c, hi_c))
    if len(pool) > 2 and rng.random() < 0.3:
        q = rng.choice(pool[1:-1])
        ivs.append(Interval(q, q, True, True))
    return intervals.normalize(ivs)


def endpoint_pool(x):
    """The finite ends of x, the midpoints between them and points one unit
    beyond the outer ones, between the two infinities."""
    ends = sorted({e for iv in x.pieces for e in (iv.lo, iv.hi) if isinstance(e, Fraction)})
    pool = ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    pool += [e + d for e in ends[:1] + ends[-1:] for d in (-1, 1)]
    return [intervals.NEG_INF] + sorted(set(pool)) + [intervals.POS_INF]


def replaced_mid_run(x, rng, pool):
    """x with one piece swapped for a random interval with ends from `pool`;
    every other piece stays the very same object."""
    j = rng.randrange(len(x.pieces))
    lo, hi = sorted(rng.sample(pool, 2))
    lo_c = isinstance(lo, Fraction) and rng.random() < 0.5
    hi_c = isinstance(hi, Fraction) and rng.random() < 0.5
    return intervals.normalize(x.pieces[:j] + (Interval(lo, hi, lo_c, hi_c),) + x.pieces[j + 1 :])


def test_escape_pieces_match_reference(extensions):
    rng = random.Random(64)
    texts = [
        "(0,1) U (1,2) U [3,4) U (5,inf)",
        "(-inf,-5] U (-4,-3] U (-3,0) U (2,3] U (3,4]",
        "(-inf,0) U (0,inf)",
        spread(48),
    ]
    exts = list(extensions) + [check_connectifiable(Space(S(t))).extension for t in texts]
    checked = outside = 0
    for ext in exts:
        x = ext.space.ambient
        pool = endpoint_pool(x)
        traces = [x, random_real_open(rng), random_open_in(x, rng)]
        traces += [pool_set(rng, pool, rng.randint(1, 6)) for _ in range(30)]
        traces += [replaced_mid_run(x, rng, pool) for _ in range(8)]
        traces += [hausdorff_witness(ext, P, random_point_in(x, rng))[0].trace]
        for trace in traces:
            assert list(_escape_pieces(ext, trace)) == reference_escape_pieces(ext, trace), trace
            checked += 1
            outside += not trace.issubset(x)
    assert checked > 5000 and 500 < outside < checked - 500  # both subset and non-subset traces


def test_index_matches_reference(corpus200):
    rng = random.Random(62)
    for sp in corpus200:
        x = sp.ambient
        ends = [e for iv in x.pieces for e in (iv.lo, iv.hi) if isinstance(e, Fraction)]
        probes = [random_point_in(x, rng) for _ in range(5)] + ends
        probes += [e + d for e in ends for d in (Fraction(-1, 7), Fraction(1, 7))]
        for z in probes:
            want = reference_index(sp, z)
            if want is None:
                with pytest.raises(PointOutsideComponent, match=re.escape(f"{z} is not a point of {x}")):
                    component_index(sp, z)
            else:
                assert component_index(sp, z) == want


def test_split_points_checks_its_points():
    sp = Space(S("(0,1) U [5,inf)"))
    with pytest.raises(EqualPoints, match="given twice"):
        split_points(sp, Fraction(6), Fraction(6))
    with pytest.raises(PointOutsideComponent, match=r"^3 is not a point of \(0,1\) U \[5,inf\)$"):
        split_points(sp, Fraction(1, 2), Fraction(3))
    with pytest.raises(PointOutsideComponent, match="^1 is not a point"):
        split_points(sp, Fraction(1), Fraction(6))


def test_both_points_added_names_the_point():
    ext = check_connectifiable(Space(S("[5,inf)"))).extension
    with pytest.raises(EqualPoints, match="^both points are p$"):
        hausdorff_witness(ext, P, P)


def _forge(cert, index, window):
    entries = list(cert.entries)
    entries[index] = (entries[index][0], window)
    return LocalConnectednessCertificate(tuple(entries))


def test_forged_windows_rejected():
    sp = Space(S("(0,1) U [2,3] U (4,5) U [6,7]"))
    cert = local_connectedness_certificate(sp)
    assert verify_local_connectedness(sp, cert)
    q = Fraction
    forged = [
        _forge(cert, 1, Interval(q(1), q(11, 2), False, False)),  # covers the next neighbour
        _forge(cert, 1, Interval(q(1, 2), q(4), False, False)),  # reaches into the previous neighbour
        _forge(cert, 0, Interval(q(-1), q(13, 2), False, False)),  # reaches over C#1 and C#2
        _forge(cert, 2, Interval(q(4), q(9, 2), False, False)),  # misses part of C#2
        _forge(cert, 3, Interval(q(11, 2), q(7), False, False)),  # misses the end of C#3
    ]
    for bad in forged:
        assert not verify_local_connectedness(sp, bad)
        assert not reference_window_check(sp, bad)


def test_window_check_matches_reference(corpus200):
    rng = random.Random(63)
    for sp in corpus200[:80]:
        cert = local_connectedness_certificate(sp)
        for _ in range(10):
            i = rng.randrange(len(cert.entries))
            real = random_real_open(rng)
            if not real or len(real.pieces) != 1:
                continue
            bad = _forge(cert, i, real.pieces[0])
            assert verify_local_connectedness(sp, bad) == reference_window_check(sp, bad)


# --------------------------------------------------------------------------
# linear scaling in the number of components
# --------------------------------------------------------------------------


def spread(k):
    return " U ".join(f"({3 * i},{3 * i + 1})" for i in range(k))


def comparisons(monkeypatch, run):
    """Endpoint comparisons made: every call of the `_lt` and `_eq` kernel,
    patched in each module that imports it."""
    count = 0
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("onepoint")]

    def counting(kernel):
        def counted(a, b):
            nonlocal count
            count += 1
            return kernel(a, b)

        return counted

    with monkeypatch.context() as mp:
        for kernel in (intervals._lt, intervals._eq):
            wrapped = counting(kernel)
            for module in modules:
                if getattr(module, kernel.__name__, None) is kernel:
                    mp.setattr(module, kernel.__name__, wrapped)
        run()
    return count


def run_cli(*argv):
    assert cli.main(list(argv), emit=[].append) == 0


OPS = {
    "check": lambda k: run_cli("check", spread(k)),
    "witness normal": lambda k: run_cli("witness", "normal", "--", spread(k), "p", "[1/4,1/2]"),
    "witness hausdorff": lambda k: run_cli("witness", "hausdorff", "--", spread(k), "p", "1/2"),
    "density": lambda k: density_check(check_connectifiable(Space(S(spread(k)))).extension, 8, 1),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_per_component_work_is_linear(monkeypatch, name):
    op = OPS[name]
    small = comparisons(monkeypatch, lambda: op(64))
    large = comparisons(monkeypatch, lambda: op(256))
    assert small > 0
    assert large <= 4.5 * small, (name, small, large)


def test_verifying_a_witness_from_p_is_sublinear(monkeypatch):
    """Verification pays for the component the witness changed: all others
    are shared by identity with the space."""
    counts = []
    for k in (64, 1024):
        ext = check_connectifiable(Space(S(spread(k)))).extension
        z = Fraction(3 * (k // 2)) + Fraction(1, 2)
        u, v = hausdorff_witness(ext, P, z)
        ok = []
        counts.append(comparisons(monkeypatch, lambda: ok.append(verify_hausdorff(ext, P, z, u, v))))
        assert ok == [True]
    small, large = counts
    assert 0 < small and large <= 2 * small, counts
