"""Metamorphic tests: an affine map of the line carries a space to an
equivalent one, so every verdict must carry over.

A map x ↦ ax + b with a ≠ 0 is a homeomorphism of the line that keeps
gaps, rays and compactness, so it maps components to components (in
reverse order when a < 0) and a connectifiable space to a connectifiable
one.  Each image goes through ``cli.main`` as text, its ``connectify``
records are judged by perfbench's own checker, and witnesses built on the
space are carried to the image, verified there, and compared with the ones
the engine builds on the image.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

from onepoint import (
    NEG_INF,
    POS_INF,
    ExtClosedSet,
    Interval,
    IntervalSet,
    P,
    Space,
    TypeI,
    TypeII,
    check_connectifiable,
    cli,
    components,
    hausdorff_witness,
    intersect,
    is_compact,
    least_valid_tails,
    normality_witness,
    only,
    parse_set,
    verify_hausdorff,
    verify_normality,
)
from onepoint.connectify import Connectifiable
from onepoint.sampling import random_disjoint_closed_pair, random_point_in, random_space

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import workloads  # noqa: E402

SLOPES = (Fraction(-1), Fraction(3, 2), Fraction(-2, 5), Fraction(7))
SHIFTS = (Fraction(0), Fraction(1), Fraction(-5, 3), Fraction(1, 7))
VERBS = ("components", "check", "connectify", "compactify")


def image_value(a, b, v):
    if v == NEG_INF or v == POS_INF:
        return v if a > 0 else -v
    return a * v + b


def image_piece(a, b, iv):
    lo, hi = image_value(a, b, iv.lo), image_value(a, b, iv.hi)
    if a > 0:
        return Interval(lo, hi, iv.lo_closed, iv.hi_closed)
    return Interval(hi, lo, iv.hi_closed, iv.lo_closed)


def image_set(a, b, s):
    pieces = [image_piece(a, b, iv) for iv in s.pieces]
    return IntervalSet(tuple(pieces if a > 0 else reversed(pieces)))  # rechecks canonical form


def carried_open(a, b, iext, w):
    """The image of an open of the extension: its trace mapped, and for a
    type-II open its tails recomputed on the image's filters."""
    trace = image_set(a, b, w.trace)
    return TypeII(trace, least_valid_tails(iext, trace)) if isinstance(w, TypeII) else TypeI(trace)


def shape(ext, pair):
    """Per open of a witness pair, the components its trace meets, and
    which of the two holds p."""
    met = tuple(
        frozenset(i for i, c in enumerate(ext.space.ambient.pieces) if intersect(w.trace, only(c)))
        for w in pair
    )
    return met, tuple(isinstance(w, TypeII) for w in pair)


def pair_with_p(ext, rng):
    """Two disjoint closed sets of the extension, p in one of them."""
    while True:
        f, g = random_disjoint_closed_pair(ext, rng)
        if f.has_p or g.has_p:
            return f, g


def run(verb, text):
    lines = []
    return cli.main([verb, text], emit=lines.append), lines


def spaces():
    """corpus(200) comes from the fixture; these are the rest: random_space
    draws and `large` spaces of 32 pieces."""
    rng = random.Random(31)
    out = [random_space(rng) for _ in range(60)]
    for seed in (7, 11):
        pieces = workloads.large_pieces(random.Random(seed), 32)
        out.append(Space(parse_set(workloads.rs.fmt_set(pieces))))
    return out


def test_affine_images_keep_every_verdict(corpus200):
    rng = random.Random(2031)
    checker = checks.Checker()
    prng = random.Random(2032)
    counts = {"refused": 0, "two points": 0, "from p": 0, "mirrored": 0, "normal": 0}
    for k, space in enumerate(list(corpus200) + spaces()):
        text = str(space)
        base = {verb: run(verb, text) for verb in VERBS}
        verdict = check_connectifiable(space)
        y, z = random_point_in(space.ambient, rng), random_point_in(space.ambient, rng)
        if isinstance(verdict, Connectifiable):
            f, g = pair_with_p(verdict.extension, prng)
            normal = normality_witness(verdict.extension, f, g)
        for j, a in enumerate(SLOPES):
            b = SHIFTS[(k + j) % len(SHIFTS)]
            image = image_set(a, b, space.ambient)
            itext = str(image)
            got = {verb: run(verb, itext) for verb in VERBS}
            for verb in VERBS:
                rc, lines = got[verb]
                assert checker.check(verb, (itext,), rc, lines, "") is None, (verb, itext)
                assert rc == base[verb][0], (verb, text, itext)

            # components: the images of the pieces, reversed when a < 0
            assert got["components"][1] == [f"C#{i}={p}" for i, p in enumerate(image.pieces)]
            # check: the same compactness, component by component
            flags = [line.rsplit(" ", 1)[1] for line in base["check"][1] if " compact=" in line]
            iflags = [line.rsplit(" ", 1)[1] for line in got["check"][1] if " compact=" in line]
            assert iflags == (flags if a > 0 else flags[::-1])
            assert got["check"][1][1] == base["check"][1][1]  # space_compact
            # compactify: the same record kind
            assert got["compactify"][1][0].split()[0] == base["compactify"][1][0].split()[0]
            # connectify: the same verdict line; a refusal names a compact component
            assert got["connectify"][1][0].split()[0] == base["connectify"][1][0].split()[0]
            if not isinstance(verdict, Connectifiable):
                # the image of a compact component, though not always the
                # image of the one the space was refused with
                compact = {str(image_piece(a, b, c.piece)) for c in components(space) if is_compact(c)}
                assert got["connectify"][1][0].removeprefix("Refused component=") in compact
                counts["refused"] += 1
                continue
            assert got["connectify"][1][0] == base["connectify"][1][0]  # components=n
            iverdict = check_connectifiable(Space(image))
            assert isinstance(iverdict, Connectifiable)
            ext, iext = verdict.extension, iverdict.extension
            fy, fz = image_value(a, b, y), image_value(a, b, z)

            if y != z:
                u, v = hausdorff_witness(ext, y, z)
                moved = TypeI(image_set(a, b, u.trace)), TypeI(image_set(a, b, v.trace))
                assert verify_hausdorff(iext, fy, fz, *moved), (text, a, b, y, z)
                counts["two points"] += 1

            u, v = hausdorff_witness(ext, P, z)
            u_trace, v_trace = image_set(a, b, u.trace), image_set(a, b, v.trace)
            tails = least_valid_tails(iext, u_trace)
            # Every component but z's lies whole in U, so only z's escape end
            # matters.  The filter rule escapes toward a piece's right end
            # unless it is included.  A positive map keeps which ends are
            # included, so it keeps the escape end, and so does a reflection
            # of a piece with one end included.  A reflection of a piece with
            # both ends excluded maps its right end to the image's left one,
            # while the rule again takes the right end.  Either excluded end
            # gives a valid filter, so the image's extension is another valid
            # one: a choice of the rule, not a bug.  U's tail then sits at the
            # end the image does not escape to, and U is no type-II open there.
            comp = next(c for c in space.ambient.pieces if c.contains(z))
            if a > 0 or comp.lo_closed or comp.hi_closed:
                assert tails is not None
                moved = TypeII(u_trace, tails), TypeI(v_trace)
                assert verify_hausdorff(iext, P, fz, *moved)
                assert shape(iext, moved) == shape(iext, hausdorff_witness(iext, P, fz))
                counts["from p"] += 1
            else:
                assert tails is None
                counts["mirrored"] += 1

            # A normality witness with p holds a tail of every component, so
            # it carries over when every component's escape end maps to the
            # image's: always for a > 0, and for a < 0 when every piece has an
            # included end, the end no filter escapes to (see above).
            if a > 0 or all(c.lo_closed or c.hi_closed for c in space.ambient.pieces):
                fi, gi = (ExtClosedSet(w.has_p, image_set(a, b, w.trace)) for w in (f, g))
                moved = tuple(carried_open(a, b, iext, w) for w in normal)
                assert verify_normality(iext, fi, gi, *moved), (text, a, b, f, g)
                built = normality_witness(iext, fi, gi)
                assert shape(iext, moved) == shape(iext, built)
                counts["normal"] += 1
    assert min(counts.values()) > 20, counts
