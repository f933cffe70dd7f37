"""The certificate replays decided on endpoints, and the one-sweep verifier
of an extension open, against the replays and the two-sweep verifier they
replaced, on `corpus(200)` and the `large` spaces, with forgeries that each
change one claim; and counts that show the replays build no set per
component."""

import random
import sys
from fractions import Fraction

import pytest

from onepoint import (
    EMPTY,
    Component,
    Connectifiable,
    EscapeFilter,
    Interval,
    IntervalSet,
    P,
    TypeI,
    TypeII,
    check_connectifiable,
    connectedness_certificate,
    density_check,
    difference,
    hausdorff_witness,
    is_closed_in,
    least_valid_tails,
    local_connectedness_certificate,
    subspace_fidelity,
    union,
    verify_connectedness,
    verify_local_connectedness,
)
from onepoint import intervals
from onepoint.connectify import ConnectednessCertificate, ConnectednessStep, _escape_piece
from onepoint.connectify import _escape_pieces, _open_as_declared
from onepoint.intervals import NEG_INF, POS_INF, _mk_interval
from onepoint.sampling import clopen_candidates, random_point_in

import references
from onepoint.space import LocalConnectednessCertificate
from test_components import endpoint_pool, pool_set, reference_window_check
from test_connectify import perfbench_large_spaces


def reference_connectedness_check(ext, cert):
    """The replaced replay: each tail against its component as a set, by
    `issubset` and `is_closed_in`."""
    if len(cert.steps) != len(ext.filters):
        return False
    for step, flt in zip(cert.steps, ext.filters):
        if step.component != flt.component or step.tail != flt.element(0):
            return False
        c = step.component.as_set()
        if not step.tail or not step.tail.issubset(c) or not is_closed_in(step.tail, c):
            return False
        if _escape_piece(flt, step.tail) is None:
            return False
    return True


@pytest.fixture(scope="module")
def spaces(corpus200):
    return list(corpus200) + perfbench_large_spaces(7)


def copy_of(piece):
    """An equal piece that is not the same object."""
    return Interval(piece.lo, piece.hi, piece.lo_closed, piece.hi_closed)


def with_entry(cert, i, comp=None, window=None):
    entries = list(cert.entries)
    c, w = entries[i]
    entries[i] = (c if comp is None else comp, w if window is None else window)
    return LocalConnectednessCertificate(tuple(entries))


def window_forgeries(space, cert, i):
    """Single-claim forgeries of entry i: each window end moved to every
    endpoint of the piece and of its neighbours (and to the infinities), a
    closed bracket at a finite end, a renumbered or neighbouring component;
    and the entry's component as an equal but distinct object, which must
    still pass."""
    pieces = space.ambient.pieces
    comp, w = cert.entries[i]
    near = pieces[max(0, i - 1) : i + 2]
    ends = [NEG_INF, POS_INF] + [e for p in near for e in (p.lo, p.hi)]
    out = []
    for e in ends:
        if intervals._lt(e, w.hi):
            out.append(with_entry(cert, i, window=_mk_interval(e, w.hi, False, False)))
        if intervals._lt(w.lo, e):
            out.append(with_entry(cert, i, window=_mk_interval(w.lo, e, False, False)))
    if isinstance(w.lo, Fraction):
        out.append(with_entry(cert, i, window=_mk_interval(w.lo, w.hi, True, False)))
    if isinstance(w.hi, Fraction):
        out.append(with_entry(cert, i, window=_mk_interval(w.lo, w.hi, False, True)))
    for j in (i - 1, i + 1):
        out.append(with_entry(cert, i, comp=Component(comp.piece, j)))
        if 0 <= j < len(pieces):
            out.append(with_entry(cert, i, comp=Component(pieces[j], i)))
    out.append(with_entry(cert, i, comp=Component(copy_of(comp.piece), i)))
    return out


def test_window_replay_matches_reference(spaces):
    rng = random.Random(3001)
    accepted = rejected = 0
    for sp in spaces:
        cert = local_connectedness_certificate(sp)
        assert verify_local_connectedness(sp, cert) and reference_window_check(sp, cert)
        n = len(cert.entries)
        picks = range(n) if n <= 8 else sorted(rng.sample(range(n), 8)) + [0, n - 1]
        for i in picks:
            for bad in window_forgeries(sp, cert, i):
                want = reference_window_check(sp, bad)
                assert verify_local_connectedness(sp, bad) == want, (sp, i, bad.entries[i])
                accepted += want
                rejected += not want
        if n > 1:
            entries = list(cert.entries)
            entries[0], entries[1] = entries[1], entries[0]
            assert not verify_local_connectedness(sp, LocalConnectednessCertificate(tuple(entries)))
            assert not verify_local_connectedness(sp, LocalConnectednessCertificate(cert.entries[1:]))
    assert accepted > 1000 and rejected > 2 * accepted


def test_an_equal_component_passes_both_replays(spaces):
    """A certificate whose every component and window is an equal copy,
    not the same object, is accepted."""
    for sp in spaces:
        cert = local_connectedness_certificate(sp)
        twin = LocalConnectednessCertificate(
            tuple((Component(copy_of(c.piece), c.index), copy_of(w)) for c, w in cert.entries)
        )
        assert verify_local_connectedness(sp, twin) and reference_window_check(sp, twin)
        verdict = check_connectifiable(sp)
        if not isinstance(verdict, Connectifiable):
            continue
        ext = verdict.extension
        honest = connectedness_certificate(ext)
        twin = ConnectednessCertificate(
            tuple(
                ConnectednessStep(
                    Component(copy_of(s.component.piece), s.component.index),
                    IntervalSet(tuple(map(copy_of, s.tail.pieces))),
                )
                for s in honest.steps
            )
        )
        assert verify_connectedness(ext, twin) and reference_connectedness_check(ext, twin)


def step_forgeries(ext, cert, i):
    """Single-claim forgeries of step i: its tail one element off either
    way, its tail's near end open, its component renumbered, the step
    swapped with a neighbour or dropped."""
    steps = list(cert.steps)
    s = steps[i]
    flt = ext.filters[i]
    tails = [flt.element(1), intervals.only(flt.toward_end(flt.start(0), False))]
    if i > 0:
        tails.append(ext.filters[i - 1].element(0))
    out = [steps[:i] + [ConnectednessStep(s.component, t)] + steps[i + 1 :] for t in tails]
    renumbered = ConnectednessStep(Component(s.component.piece, i + 1), s.tail)
    out.append(steps[:i] + [renumbered] + steps[i + 1 :])
    if i + 1 < len(steps):
        out.append(steps[:i] + [steps[i + 1], steps[i]] + steps[i + 2 :])
    out.append(steps[:i] + steps[i + 1 :])
    return [ConnectednessCertificate(tuple(f)) for f in out]


def test_connectedness_replay_matches_reference(extensions):
    rng = random.Random(3002)
    exts = list(extensions) + [check_connectifiable(sp).extension for sp in perfbench_large_spaces(7)]
    checked = 0
    for ext in exts:
        cert = connectedness_certificate(ext)
        assert verify_connectedness(ext, cert) and reference_connectedness_check(ext, cert)
        n = len(cert.steps)
        picks = range(n) if n <= 8 else sorted(rng.sample(range(n), 8)) + [0, n - 1]
        for i in picks:
            for bad in step_forgeries(ext, cert, i):
                assert not reference_connectedness_check(ext, bad)
                assert not verify_connectedness(ext, bad)
                checked += 1
    assert checked > 1000


def test_connectedness_replay_matches_reference_under_any_filter_rule(extensions, monkeypatch):
    """With the filter rule replaced by arbitrary sets (empty, the component
    itself, pieces reaching out of it or open at its ends, several pieces),
    the certificate carries those sets and both replays judge them alike."""
    rng = random.Random(3003)
    rule = {}
    element = EscapeFilter.element

    def ruled(flt, n):
        got = rule.get(flt.component.index)
        return element(flt, n) if got is None else got

    monkeypatch.setattr(EscapeFilter, "element", ruled)
    verdicts = set()
    for ext in extensions[:120]:
        x = ext.space.ambient
        pool = endpoint_pool(x)
        for _ in range(12):
            rule.clear()
            i = rng.randrange(len(x.pieces))
            p = x.pieces[i]
            choice = rng.randrange(4)
            if choice == 0:
                rule[i] = EMPTY
            elif choice == 1:
                rule[i] = intervals.only(p if rng.random() < 0.5 else copy_of(p))
            else:
                rule[i] = pool_set(rng, pool, rng.randint(1, 4))
            cert = connectedness_certificate(ext)
            want = reference_connectedness_check(ext, cert)
            assert verify_connectedness(ext, cert) == want, (x, i, rule[i])
            verdicts.add(want)
    assert verdicts == {True, False}


def counting(monkeypatch, target, name, log):
    original = getattr(target, name)

    def counted(*args):
        log.append(args)
        return original(*args)

    monkeypatch.setattr(target, name, counted)


def test_the_replays_build_no_set_per_component(monkeypatch):
    """On 128 components, replaying the local connectedness certificate
    calls no `intersect` and builds no set through the public constructor;
    replaying the connectedness certificate builds each filter's element 0
    once, in line order, and no set through the public constructor."""
    space = perfbench_large_spaces(7)[-1]
    assert len(space.ambient.pieces) == 128
    ext = check_connectifiable(space).extension
    local, cert = local_connectedness_certificate(space), connectedness_certificate(ext)
    intersects, sets, elements = [], [], []
    for name, module in sorted(sys.modules.items()):
        if name.startswith("onepoint") and getattr(module, "intersect", None) is intervals.intersect:
            counting(monkeypatch, module, "intersect", intersects)
    counting(monkeypatch, IntervalSet, "__init__", sets)
    counting(monkeypatch, EscapeFilter, "element", elements)
    assert verify_local_connectedness(space, local)
    assert intersects == [] and sets == [] and elements == []
    assert verify_connectedness(ext, cert)
    assert [(flt.component.index, n) for flt, n in elements] == [(i, 0) for i in range(128)]
    assert intersects == [] and sets == []


def sampled_opens(ext, rng):
    """The opens the certificates and witnesses sample, and falsifier
    candidates, which include closed traces."""
    x = ext.space.ambient
    fid = subspace_fidelity(ext, 3, rng.randrange(1000))
    opens = list(density_check(ext, 3, rng.randrange(1000)).neighborhoods)
    opens += fid.extension_opens + tuple(TypeI(w) for w in fid.base_opens)
    opens += hausdorff_witness(ext, P, random_point_in(x, rng))
    return opens + clopen_candidates(ext, rng, 4)


def open_forgeries(ext, u, rng):
    """Single-claim forgeries of an open: a tail one too small, a hull end
    moved onto its filter's anchor, a trace leaving X, and a closed end
    inside its host."""
    x = ext.space.ambient
    trace = u.trace
    out = []
    if isinstance(u, TypeII):
        escapes = _escape_pieces(ext, trace)
        least = least_valid_tails(ext, trace) or (0,) * len(x.pieces)
        picks = [i for i, m in enumerate(least) if m > 0]
        for i in rng.sample(picks, min(2, len(picks))):
            out.append(TypeII(trace, least[:i] + (least[i] - 1,) + least[i + 1 :]))
        cut = [i for i, e in enumerate(escapes) if e is not None and e is not x.pieces[i]]
        for i in rng.sample(cut, min(2, len(cut))):
            flt, e = ext.filter_at(i), escapes[i]
            near_closed = e.lo_closed if flt.side > 0 else e.hi_closed
            moved = intervals.only(flt.toward_end(flt.anchor, near_closed))
            out.append(TypeII(union(difference(trace, intervals.only(e)), moved), u.tails))
    outside = [q for q in endpoint_pool(x)[1:-1] if q not in x]
    if outside:
        q = rng.choice(outside)
        leaving = union(trace, intervals.only(Interval(q, q, True, True)))
        out.append(TypeII(leaving, u.tails) if isinstance(u, TypeII) else TypeI(leaving))
    for j, p in enumerate(trace.pieces):
        if isinstance(p.lo, Fraction) and not p.lo_closed and p.lo in x:
            closed = Interval(p.lo, p.hi, True, p.hi_closed)
            shut = intervals.normalize(trace.pieces[:j] + (closed,) + trace.pieces[j + 1 :])
            out.append(TypeII(shut, u.tails) if isinstance(u, TypeII) else TypeI(shut))
            break
    return out


def test_one_sweep_verifier_matches_the_two_sweeps(spaces):
    """`_open_as_declared` (one `_hosts` sweep) against `declared_tails_hold`
    and `trace_open_check` as they were (the merge sweep, then openness)."""
    rng = random.Random(3401)
    verdicts = []
    for space in spaces:
        verdict = check_connectifiable(space)
        if not isinstance(verdict, Connectifiable):
            continue
        ext = verdict.extension
        for u in sampled_opens(ext, rng):
            assert least_valid_tails(ext, u.trace) == references.least_valid_tails(ext, u.trace)
            for w in [u] + open_forgeries(ext, u, rng):
                got = _open_as_declared(ext, w)
                assert got == references.open_as_declared(ext, w), (space, w)
                verdicts.append(got)
    assert verdicts.count(True) > 2000 and verdicts.count(False) > 2000
