"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its runtime budget.  Run with `pytest tests/test_acceptance.py -v`.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from onepoint import (
    EMPTY,
    INFINITY,
    CompactExtension,
    CompactRefused,
    EscapeFilter,
    IsTrivial,
    NotClopenEvidence,
    P,
    Refused,
    TypeI,
    TypeII,
    check_axiom,
    check_connectifiable,
    clopen_falsifier,
    compactification_hausdorff_witness,
    components,
    connectedness_certificate,
    count_topologies,
    density_check,
    difference,
    enumerate_topologies,
    finite_subcover,
    has_compact_component,
    hausdorff_witness,
    intersect,
    is_closed_in,
    is_compact,
    is_open_in,
    normality_witness,
    search_one_point_connectifications,
    subspace_fidelity,
    union,
    verify_connectedness,
    verify_compact_hausdorff,
    verify_density,
    verify_fidelity,
    verify_hausdorff,
    verify_normality,
)
from onepoint.compactify import compactify
from onepoint.sampling import (
    _open_expansion,
    clopen_candidates,
    random_disjoint_closed_pair,
    random_open_in,
    random_point_in,
)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def done(self, label, detail):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, f"{label} took {elapsed:.1f}s (budget {self.seconds}s)"
        print(f"PASS {label} {detail} [{elapsed:.1f}s < {self.seconds}s]")


def test_criterion_1_verdict_dichotomy(corpus200):
    budget = Budget(5)
    assert len(corpus200) >= 200
    refused = 0
    for sp in corpus200:
        verdict = check_connectifiable(sp)
        assert isinstance(verdict, Refused) == (has_compact_component(sp) is not None)
        if isinstance(verdict, Refused):
            refused += 1
            w = verdict.witness.as_set()
            assert is_open_in(w, sp.ambient) and is_closed_in(w, sp.ambient)
    budget.done("criterion-1 verdict-dichotomy", f"spaces={len(corpus200)} refused={refused}")


def test_criterion_2_construction_soundness(extensions):
    budget = Budget(30)
    rng = random.Random(2024)
    falsified = 0
    for ext in extensions:
        assert verify_density(ext, density_check(ext, samples=100))
        assert verify_fidelity(ext, subspace_fidelity(ext, samples=100))
        assert verify_connectedness(ext, connectedness_certificate(ext))
        for cand in clopen_candidates(ext, rng, 200):
            out = clopen_falsifier(ext, cand)  # raises on a genuine proper clopen
            assert isinstance(out, (IsTrivial, NotClopenEvidence))
            falsified += 1
    budget.done(
        "criterion-2 construction-soundness",
        f"extensions={len(extensions)} candidates={falsified}",
    )


def test_criterion_3_witness_soundness(extensions):
    budget = Budget(60)
    rng = random.Random(2025)
    hausdorff_pairs = normality_pairs = p_cases = 0
    for ext in extensions:
        x = ext.space.ambient
        pairs = 0
        while pairs < 100:
            y = P if rng.random() < 0.25 else random_point_in(x, rng)
            z = P if rng.random() < 0.25 else random_point_in(x, rng)
            if (y is P and z is P) or (y is not P and z is not P and y == z):
                continue
            u, v = hausdorff_witness(ext, y, z)
            assert verify_hausdorff(ext, y, z, u, v)
            pairs += 1
        hausdorff_pairs += pairs
        for _ in range(50):
            f, g = random_disjoint_closed_pair(ext, rng)
            u, v = normality_witness(ext, f, g)
            assert verify_normality(ext, f, g, u, v)
            normality_pairs += 1
            if f.has_p or g.has_p:
                p_cases += 1
                pu, pv = (u, v) if f.has_p else (v, u)
                pf, pg = (f, g) if f.has_p else (g, f)
                # displayed-formula shape: {p} with per-component open parts
                assert isinstance(pu, TypeII) and isinstance(pv, TypeI)
                for i, flt in enumerate(ext.filters):
                    c = flt.component.as_set()
                    u_c, v_c = intersect(pu.trace, c), intersect(pv.trace, c)
                    assert not intersect(u_c, v_c)
                    assert is_open_in(u_c, ext.space.ambient)
                    assert is_open_in(v_c, ext.space.ambient)
                    assert flt.element(pu.tails[i]).issubset(u_c)
                    assert intersect(pf.trace, c).issubset(u_c)
                    assert intersect(pg.trace, c).issubset(v_c)
    assert p_cases > len(extensions) * 10
    budget.done(
        "criterion-3 witness-soundness",
        f"hausdorff={hausdorff_pairs} normality={normality_pairs} p_cases={p_cases}",
    )


def test_criterion_4_filter_laws(corpus200):
    budget = Budget(10)
    rng = random.Random(2026)
    filters = points = 0
    for sp in corpus200:
        for comp in components(sp):
            if is_compact(comp):
                continue
            flt = EscapeFilter(comp)
            c = comp.as_set()
            prev = None
            for n in range(65):
                e = flt.element(n)
                assert e, "filter elements are nonempty"
                assert e.issubset(c)
                assert is_closed_in(e, c)
                if prev is not None:
                    assert e.issubset(prev)
                prev = e
            filters += 1
            for _ in range(200):
                z = random_point_in(c, rng)
                assert z not in flt.element(flt.avoid_index(z))
                points += 1
    budget.done("criterion-4 filter-laws", f"filters={filters} avoidance_points={points}")


def test_criterion_5_finite_enumerator_agreement():
    budget = Budget(60)
    expected = [1, 1, 4, 29, 355]
    for n, want in enumerate(expected):
        family = count_topologies(n, "family")
        preorder = count_topologies(n, "preorder")
        assert family == preorder == want, f"n={n}: family={family} preorder={preorder}"
    budget.done("criterion-5 finite-enumerators", "counts=1,1,4,29,355 both methods")


def test_criterion_6_micro_necessity():
    budget = Budget(120)
    t1_spaces = 0
    for n in range(1, 5):
        for t in enumerate_topologies(n, "preorder"):
            if not check_axiom(t, "T1"):
                continue
            t1_spaces += 1
            assert search_one_point_connectifications(t, "T2") == []
            # Judged by rows too: the T2 search reads the search's table.
            assert not any(check_axiom(e, "T2") for e in search_one_point_connectifications(t, "connected"))
    assert t1_spaces == 4  # exactly the discrete space at each size
    budget.done("criterion-6 micro-necessity", f"t1_spaces={t1_spaces} sizes=1..4")


def test_criterion_7_compactification_duality(corpus200):
    budget = Budget(10)
    rng = random.Random(2027)
    singles = [sp for sp in corpus200 if len(sp.ambient.pieces) == 1]
    witnesses = covers = 0
    for sp in singles:
        verdict = compactify(sp)
        assert isinstance(verdict, CompactRefused) == isinstance(
            check_connectifiable(sp), Refused
        )
        if not isinstance(verdict, CompactExtension):
            continue
        x = sp.ambient
        for _ in range(3):
            z = random_point_in(x, rng)
            u, v = compactification_hausdorff_witness(verdict, INFINITY, z)
            assert verify_compact_hausdorff(verdict, INFINITY, z, u, v)
            witnesses += 1
        z2 = random_point_in(x, rng)
        u, v = compactification_hausdorff_witness(verdict, INFINITY, z2)
        box = difference(x, u.trace)
        hull = TypeI(intersect(_open_expansion(box, Fraction(1)), x))
        noise = TypeI(random_open_in(x, rng))
        sub = finite_subcover(verdict, [u, hull, noise])
        total = EMPTY
        for m in sub:
            total = union(total, m.trace)
        assert total == x
        covers += 1
    assert witnesses >= 30
    budget.done(
        "criterion-7 compactification-duality",
        f"singles={len(singles)} witnesses={witnesses} covers={covers}",
    )


def test_criterion_8_selftest_determinism():
    budget = Budget(60)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "onepoint", "--format", "records", "selftest"]
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    assert first.returncode == 0, first.stdout.decode() + first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout and first.stdout
    budget.done(
        "criterion-8 determinism", f"bytes={len(first.stdout)} identical across two runs"
    )
