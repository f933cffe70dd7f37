"""Seeded inputs of the three workloads, as lists of ops.

An op is what one user request costs: a ``cli.main`` call with text
arguments, or a library call (certificates, the clopen falsifier) whose
result is rendered with ``records``.  Its output is the exit code and the
emitted lines, which ``checks`` judges.  The structure of every workload
(component counts, k values, op kinds and their number) is fixed; the seed
only moves the rationals, so the figures compare across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import refsets as rs
import reffinite as rf


@dataclass(frozen=True)
class Op:
    kind: str
    ctx: tuple  # the arguments the checker needs, as text
    argv: list | None = None  # a CLI request
    call: Callable[[], list] | None = None  # a library request
    warm: bool = False  # also run once during set-up


def _cli(kind: str, argv: list, ctx: tuple, warm: bool = False) -> Op:
    return Op(kind, ctx, argv=argv, warm=warm)


def space_verbs(text: str, warm: bool = False) -> list[Op]:
    return [
        _cli(verb, [verb, text], (text,), warm)
        for verb in ("components", "check", "connectify", "compactify")
    ]


def hausdorff(text: str, y: str, z: str, warm: bool = False) -> Op:
    # "--" ends option parsing, so a negative rational is not read as a flag.
    return _cli("hausdorff", ["witness", "hausdorff", "--", text, y, z], (text, y, z), warm)


def normal(text: str, f: str, g: str, warm: bool = False) -> Op:
    return _cli("normal", ["witness", "normal", "--", text, f, g], (text, f, g), warm)


def certificate_ops(m, ext, text: str, samples: int, d_seed: int, f_seed: int) -> list[Op]:
    cn, rec = m.connectify, m.records
    return [
        Op("density", (text,), call=lambda: rec.fmt_density(cn.density_check(ext, samples, d_seed))),
        Op("fidelity", (text,), call=lambda: rec.fmt_fidelity(cn.subspace_fidelity(ext, samples, f_seed))),
        Op("connectedness", (text,), call=lambda: rec.fmt_connectedness(ext, cn.connectedness_certificate(ext))),
    ]


def falsifier_ops(m, ext, text: str, candidates) -> list[Op]:
    cn, rec = m.connectify, m.records
    return [
        Op("falsifier", (text, rec.fmt_open(c)), call=lambda c=c: [rec.fmt_falsifier_outcome(cn.clopen_falsifier(ext, c))])
        for c in candidates
    ]


def closed_spec(f) -> str:
    trace = str(f.trace)
    if not f.has_p:
        return trace
    return "p" if trace == "empty" else f"p+{trace}"


# --------------------------------------------------------------------------
# corpus: the seeded 200-space sampling.corpus, many cheap ops
# --------------------------------------------------------------------------


def corpus(m, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    warm_left = 3  # warm up on the first three connectifiable spaces
    for space in m.sampling.corpus(200, seed):
        text = str(space.ambient)
        verdict = m.connectify.check_connectifiable(space)
        refused = isinstance(verdict, m.connectify.Refused)
        warm = not refused and warm_left > 0
        warm_left -= warm
        ops += space_verbs(text, warm)
        y = m.sampling.random_point_in(space.ambient, rng)
        if refused:
            ops += [hausdorff(text, "p", str(y)), normal(text, "p", "empty")]
            continue
        ext = verdict.extension
        z = m.sampling.random_point_in(space.ambient, rng)
        if z == y or rng.random() < 0.5:
            ops.append(hausdorff(text, "p", str(z), warm))
        else:
            ops.append(hausdorff(text, str(y), str(z), warm))
        f, g = m.sampling.random_disjoint_closed_pair(ext, rng)
        ops.append(normal(text, closed_spec(f), closed_spec(g), warm))
        ops += certificate_ops(m, ext, text, 8, rng.randrange(1 << 30), rng.randrange(1 << 30))
        ops += falsifier_ops(m, ext, text, m.sampling.clopen_candidates(ext, rng, 2))
    return ops


# --------------------------------------------------------------------------
# large: 32 to 128 components, points 2^-k from an open end
# --------------------------------------------------------------------------

LARGE_COMPONENTS = (32, 48, 64, 96, 128)
HAUSDORFF_K = (64, 512, 1024, 2048, 3072, 4096)
NORMAL_K = (4096, 2048, 1024, 512, 64)  # one per space, paired with LARGE_COMPONENTS
PLAIN_PAIRS = 8

# An endpoint beyond the 4300-digit limit of int(str); the same every seed.
OVERSIZED = "1" + "0" * 4400


def large_pieces(rng: random.Random, n: int) -> list:
    """n pieces, none compact; the middle one is a bounded open interval."""
    pieces = []
    cursor = Fraction(rng.randint(-40, -20))
    for i in range(n):
        if i == 0 and rng.random() < 0.3:
            pieces.append((None, cursor, False, rng.random() < 0.5))
            continue
        prev = pieces[-1] if pieces else None
        if prev and not prev[3] and rng.random() < 0.25:
            lo, lc = prev[1], False  # only the single point prev[1] is missing
        else:
            lo, lc = cursor + Fraction(rng.randint(1, 6), rng.randint(1, 3)), rng.random() < 0.5
        if i == n - 1 and rng.random() < 0.3:
            hi, hc = None, False
        else:
            hi = lo + Fraction(rng.randint(1, 8), rng.randint(1, 3))
            hc = not lc and rng.random() < 0.5
        if i == n // 2:
            lc = hc = False
        pieces.append((lo, hi, lc, hc))
        cursor = hi
    return pieces


def _inner(piece, rng: random.Random) -> Fraction:
    lo, hi, _, _ = piece
    lo = hi - 4 if lo is None else lo
    hi = lo + 4 if hi is None else hi
    return lo + (hi - lo) * Fraction(rng.randint(1, 15), 16)


def _closed_inside(pieces, idx, rng: random.Random) -> str:
    parts = []
    for i in idx:
        a, b = sorted((_inner(pieces[i], rng), _inner(pieces[i], rng)))
        parts.append((a, b if b > a else a, True, True))
    return rs.fmt_set(parts)


def large_candidates(m, ext, pieces, rng: random.Random) -> list:
    """Falsifier candidates of four fixed kinds, so their cost follows the
    component count rather than the seed."""
    cn, iv = m.connectify, m.intervals
    x = ext.space.ambient
    zeros = (0,) * len(pieces)
    odd = iv.parse_set(rs.fmt_set(pieces[1::2]))
    box = iv.parse_set(_closed_inside(pieces, [len(pieces) // 2], rng))
    return [
        cn.TypeI(odd),  # open; its complement misses the tail of C#1
        cn.TypeII(iv.difference(x, odd), zeros),  # misses the tail of C#1
        cn.TypeI(box),  # a closed box, not open
        cn.TypeII(iv.difference(x, box), zeros),  # open; its complement is the box
    ]


def large(m, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n, nk in zip(LARGE_COMPONENTS, NORMAL_K):
        warm = n == LARGE_COMPONENTS[0]
        pieces = large_pieces(rng, n)
        text = rs.fmt_set(pieces)
        ops += space_verbs(text, warm)
        # The filter of a bounded piece with an open right end escapes there.
        lo, hi, _, _ = pieces[n // 2]
        half = (hi - lo) / 2
        for k in HAUSDORFF_K:
            ops.append(hausdorff(text, "p", str(hi - half / 2**k), warm and k == HAUSDORFF_K[0]))
        for _ in range(PLAIN_PAIRS):
            i, j = sorted(rng.sample(range(n), 2))
            ops.append(hausdorff(text, str(_inner(pieces[i], rng)), str(_inner(pieces[j], rng))))
        ops.append(normal(text, "p", f"[{hi - half / 2**nk},{hi - half / 2**(nk + 1)}]"))
        idx = rng.sample([i for i in range(n) if i != n // 2], 6)
        ops.append(normal(text, _closed_inside(pieces, sorted(idx[:3]), rng), _closed_inside(pieces, sorted(idx[3:]), rng)))
        ext = m.connectify.check_connectifiable(m.space.Space(m.intervals.parse_set(text))).extension
        # Fixed sampling seeds: the kinds of sampled opens, and so the cost,
        # stay the same across --seed; the space they are drawn on does not.
        ops += certificate_ops(m, ext, text, 4, n, n + 1)
        ops += falsifier_ops(m, ext, text, large_candidates(m, ext, pieces, rng))
    ops.append(_cli("oversized", ["connectify", f"(0,1) U [{OVERSIZED},inf)"], ("connectify",)))
    ops.append(_cli("oversized", ["witness", "hausdorff", "(0,inf)", "p", OVERSIZED], ("witness hausdorff",)))
    return ops


# --------------------------------------------------------------------------
# finite: the topology enumerator and the connectification search
# --------------------------------------------------------------------------

FOUR_POINT_SAMPLE = 8


def finite(m, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [_cli("enumerate", ["finite", "enumerate", str(n)], (str(n),), warm=n == 3) for n in range(6)]

    def bases(n: int) -> list:
        # Sorted by their opens, so the sample does not follow the
        # enumeration order.
        return sorted(m.finite.enumerate_topologies(n), key=lambda b: sorted(b.opens))

    small = [b for n in range(4) for b in bases(n)]
    four = rng.sample(bases(4), FOUR_POINT_SAMPLE)
    for k, base in enumerate(small + four):
        lit = m.finite.topology_literal(base)
        for ax in rf.AXIOMS:
            warm = k == len(small) and ax == "T0"  # fills the 5-point cache
            ops.append(_cli("search", ["finite", "search", lit, ax], (lit, str(base.size), ax), warm))
    return ops


WORKLOADS = {"corpus": corpus, "large": large, "finite": finite}
