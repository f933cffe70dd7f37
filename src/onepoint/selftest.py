"""The full invariant suite behind the ``selftest`` CLI verb.

Every check is seeded and deterministic: two runs print identical bytes.
Moderate sample sizes keep the whole suite within a few seconds; the heavy
budgets live in the acceptance test module.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import connectify as cn
from . import finite as fin
from . import sampling
from .compactify import (
    INFINITY,
    CompactRefused,
    TypeInf,
    compactification_hausdorff_witness,
    compactify,
    finite_subcover,
    verify_compact_hausdorff,
)
from .intervals import _union_all, difference, intersect, is_closed_in, is_open_in, union
from .space import (
    components,
    is_compact,
    local_connectedness_certificate,
    separate_disjoint_closed,
    verify_local_connectedness,
)


def _check_algebra_laws():
    rng = random.Random(101)
    for _ in range(40):
        a = sampling.random_real_open(rng)
        b = sampling.random_closed_in(sampling.random_real_open(rng), rng)
        x = union(sampling.random_real_open(rng), a)
        if difference(x, union(a, b)) != intersect(difference(x, a), difference(x, b)):
            return False, "de-morgan-violated"
    hits = 0
    for _ in range(300):
        a = sampling.random_real_open(rng)
        b = sampling.random_real_open(rng)
        q = sampling.rand_fraction(rng, -12, 12, 8)
        if ((q in union(a, b)) != ((q in a) or (q in b))) or (
            (q in intersect(a, b)) != ((q in a) and (q in b))
        ) or ((q in difference(a, b)) != ((q in a) and q not in b)):
            return False, f"membership-oracle q={q}"
        hits += q in a
    return True, f"triples=40 points=300 hits={hits}"


def _check_dichotomy():
    spaces = sampling.corpus(80)
    refused = 0
    for space in spaces:
        verdict = cn.check_connectifiable(space)
        # an independent reading of the theorem, not the verdict's own scan
        compact = any(map(is_compact, components(space)))
        if isinstance(verdict, cn.Refused) != compact:
            return False, f"dichotomy-broken space={space}"
        if isinstance(verdict, cn.Refused):
            refused += 1
            w = verdict.witness.as_set()
            x = space.ambient
            if not (is_open_in(w, x) and is_closed_in(w, x)):
                return False, f"refusal-witness-not-clopen space={space}"
        else:
            if len(verdict.extension.filters) != len(components(space)):
                return False, f"missing-filter space={space}"
    return True, f"spaces={len(spaces)} refused={refused}"


def _check_local_connectedness():
    for space in sampling.corpus(60):
        cert = local_connectedness_certificate(space)
        if not verify_local_connectedness(space, cert):
            return False, f"certificate-failed space={space}"
    return True, "spaces=60"


def _check_separation():
    rng = random.Random(202)
    done = 0
    for space in sampling.corpus(50):
        x = space.ambient
        for _ in range(4):
            f = sampling.random_closed_in(x, rng)
            g = difference(sampling.random_closed_in(x, rng), f.closure())
            if intersect(f, g) or not is_closed_in(g, x):
                continue
            u, v = separate_disjoint_closed(space, f, g)
            if not (f.issubset(u) and g.issubset(v)):
                return False, f"containment space={space}"
            if intersect(u, v):
                return False, f"overlap space={space}"
            if not (is_open_in(u, x) and is_open_in(v, x)):
                return False, f"not-open space={space}"
            done += 1
    return True, f"pairs={done}"


def _connectifiable_extensions(count):
    exts = []
    for space in sampling.corpus(count):
        verdict = cn.check_connectifiable(space)
        if isinstance(verdict, cn.Connectifiable):
            exts.append(verdict.extension)
    return exts


def _check_construction():
    rng = random.Random(303)
    exts = _connectifiable_extensions(40)
    for ext in exts:
        if not cn.verify_density(ext, cn.density_check(ext, samples=20)):
            return False, f"density space={ext.space}"
        if not cn.verify_fidelity(ext, cn.subspace_fidelity(ext, samples=20)):
            return False, f"fidelity space={ext.space}"
        cert = cn.connectedness_certificate(ext)
        if not cn.verify_connectedness(ext, cert):
            return False, f"connectedness space={ext.space}"
        for cand in sampling.clopen_candidates(ext, rng, 30):
            cn.clopen_falsifier(ext, cand)  # raises on a genuine clopen set
    return True, f"extensions={len(exts)}"


def _check_witnesses():
    rng = random.Random(404)
    exts = _connectifiable_extensions(30)
    pairs = triples = 0
    for ext in exts:
        x = ext.space.ambient
        for _ in range(10):
            pts = [cn.P if rng.random() < 0.3 else sampling.random_point_in(x, rng) for _ in "yz"]
            y, z = pts
            same = (y is cn.P and z is cn.P) or (y is not cn.P and z is not cn.P and y == z)
            if same:
                continue
            u, v = cn.hausdorff_witness(ext, y, z)
            if not cn.verify_hausdorff(ext, y, z, u, v):
                return False, f"hausdorff space={ext.space} y={y} z={z}"
            pairs += 1
        for _ in range(5):
            f, g = sampling.random_disjoint_closed_pair(ext, rng)
            u, v = cn.normality_witness(ext, f, g)
            if not cn.verify_normality(ext, f, g, u, v):
                return False, f"normality space={ext.space}"
            triples += 1
    return True, f"extensions={len(exts)} hausdorff={pairs} normality={triples}"


def _check_filter_laws():
    rng = random.Random(505)
    checked = 0
    for space in sampling.corpus(30):
        for comp in components(space):
            if is_compact(comp):
                continue
            flt = cn.EscapeFilter(comp)
            c = comp.as_set()
            prev = None
            for n in range(0, 33):
                e = flt.element(n)
                if not e or not e.issubset(c) or not is_closed_in(e, c):
                    return False, f"element-law C={comp.piece} n={n}"
                if prev is not None and not e.issubset(prev):
                    return False, f"not-descending C={comp.piece} n={n}"
                prev = e
            for _ in range(30):
                z = sampling.random_point_in(c, rng)
                n = flt.avoid_index(z)
                if z in flt.element(n) or (n > 0 and z not in flt.element(n - 1)):
                    return False, f"avoid-index C={comp.piece} z={z}"
            checked += 1
    return True, f"filters={checked}"


def _check_topology_laws():
    rng = random.Random(606)
    exts = _connectifiable_extensions(20)
    ops = 0
    for ext in exts:
        opens = [cn.TypeI(sampling.random_open_in(ext.space.ambient, rng)) for _ in range(4)]
        opens += [sampling.random_p_neighborhood(ext, rng, 8) for _ in range(4)]
        opens += [cn.TypeI(difference(ext.space.ambient, ext.space.ambient)), ext.whole_open()]
        for a in opens:
            for b in opens:
                both = cn.intersect_open(ext, a, b)
                if not cn.is_open_in_extension(ext, both):
                    return False, f"intersection-left-topology space={ext.space}"
                joined = cn.union_open(ext, [a, b])
                if not cn.is_open_in_extension(ext, joined):
                    return False, f"union-left-topology space={ext.space}"
                if isinstance(both, cn.TypeII) and not cn.declared_tails_hold(ext, both):
                    return False, f"intersection-tails space={ext.space}"
                if isinstance(joined, cn.TypeII) and not cn.declared_tails_hold(ext, joined):
                    return False, f"union-tails space={ext.space}"
                ops += 2
    return True, f"extensions={len(exts)} ops={ops}"


def _check_finite_enumerators():
    expected = {0: 1, 1: 1, 2: 4, 3: 29, 4: 355}
    for n in range(4):
        a = fin.count_topologies(n, "family")
        b = fin.count_topologies(n, "preorder")
        if a != b or a != expected[n]:
            return False, f"n={n} family={a} preorder={b}"
    if fin.count_topologies(4, "preorder") != expected[4]:
        return False, "n=4 preorder"
    return True, "counts=1,1,4,29,355"


def _check_micro_necessity():
    tested = 0
    for n in range(1, 4):
        for space in fin.enumerate_topologies(n, "preorder"):
            if not fin.check_axiom(space, "T1"):
                continue
            # The T2 search reads the search's table; the T2 rule reads rows.
            connected = fin.search_one_point_connectifications(space, "connected")
            if fin.search_one_point_connectifications(space, "T2") or any(
                fin.check_axiom(t, "T2") for t in connected
            ):
                return False, f"found-forbidden-connectification n={n}"
            tested += 1
    return True, f"t1_spaces={tested}"


def _check_duality():
    rng = random.Random(707)
    singles = [s for s in sampling.corpus(80) if len(s.ambient.pieces) == 1]
    witnesses = covers = 0
    for space in singles:
        verdict = compactify(space)
        refused_compact = isinstance(verdict, CompactRefused)
        refused_connect = isinstance(cn.check_connectifiable(space), cn.Refused)
        if refused_compact != refused_connect:
            return False, f"duality-broken space={space}"
        if refused_compact:
            continue
        x = space.ambient
        z = sampling.random_point_in(x, rng)
        u, v = compactification_hausdorff_witness(verdict, INFINITY, z)
        if not verify_compact_hausdorff(verdict, INFINITY, z, u, v):
            return False, f"compact-hausdorff space={space}"
        witnesses += 1
        box = difference(x, u.trace)  # compact remainder left by the infinity member
        hull = intersect(sampling._open_expansion(box, Fraction(1)), x) if box else box
        cover = [u, cn.TypeI(hull), cn.TypeI(sampling.random_open_in(x, rng))]
        sub = finite_subcover(verdict, cover)
        covered = _union_all(m.trace for m in sub)
        if difference(x, covered) or not any(isinstance(m, TypeInf) for m in sub):
            return False, f"subcover-gap space={space}"
        covers += 1
    return True, f"singles={len(singles)} witnesses={witnesses} covers={covers}"


_CHECKS = (
    ("algebra-laws", _check_algebra_laws),
    ("verdict-dichotomy", _check_dichotomy),
    ("local-connectedness", _check_local_connectedness),
    ("separation", _check_separation),
    ("construction-soundness", _check_construction),
    ("witness-soundness", _check_witnesses),
    ("filter-laws", _check_filter_laws),
    ("topology-laws", _check_topology_laws),
    ("finite-enumerators", _check_finite_enumerators),
    ("micro-necessity", _check_micro_necessity),
    ("compactification-duality", _check_duality),
)


def run() -> tuple[int, list[str]]:
    """Run every invariant check: exit code 0 when all pass, else 1, and the lines."""
    lines = []
    failing = 0
    for name, fn in _CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # an invariant check must never raise
            ok, detail = False, f"error={exc!r}"
        lines.append(f"{'ok' if ok else 'FAIL'} {name} {detail}")
        failing += not ok
    lines.append(f"selftest checks={len(_CHECKS)} failing={failing}")
    return (0 if failing == 0 else 1), lines
