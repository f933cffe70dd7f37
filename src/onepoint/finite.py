"""Oracle on finite topological spaces (at most 6 points).

Subsets of {0..n-1} are n-bit masks.  Every finite topology is Alexandrov:
row ``up[i]`` of its specialization preorder is the least open of point i,
and the module works on these row tuples alone.  One rule yields them, the
axioms read them and the search filters them; a ``FiniteSpace`` (the family
of opens) is made only for a space the module returns.

The rule is the paper's: add one point.  Each preorder on n points is one
on n - 1 points, its base, extended by a point p, fixed by the open A of
points above p and the closed B of points below it, with every point of B
below every point of A (Erne and Stege, Order 8, 1991).  One mask table,
`_table`, gives a base's opens and the AND of the rows of each mask's
points; the A that fit a closed B are the opens inside that AND of B.
`_extensions` walks those A, yielding each pair with its rows, and
`_extension_count` adds them up bit-parallel.  The preorders on n points
recurse through `_extensions` from the empty space, and sorted they are the
lexicographic stream of `enumerate_topologies`.  Counting reads one point
fewer: it adds up the pairs of each preorder on n - 1 points.

The search keeps a base x's pairs with A not empty, x being dense exactly
then.  The extension is connected exactly when p lies in the closure of
every component of x, that is when A meets every component, which is read
off x's components once per search.  Those A are all `_extensions` walks,
so the rows of a B that no such A fits are never built.  The opens of a found extension are x's opens missing B, and each open
holding A with p added: the paper's topology on the extension, restricted
to finite spaces.  The construction decides four axioms for every
candidate, so the search asks only T0 and normal-pairs: connected and
locally connected always hold, T1 and T2 never (p's least open holds the
nonempty A).

Axioms on rows: T0 is distinct rows, T1 each row being its point alone.  T2
is the T1 rule: a row holding y holds y's row, so rows are pairwise disjoint
only when each is its own point.  Locally connected always holds: each row
is a connected open, its point lying below the rest of it.  Connected: one
component, the rows that meet merged into one.  Normal-pairs: no two points
with disjoint closures have meeting rows.
"""

from __future__ import annotations

import re

from .errors import ParseError, SizeTooLarge
from .frozen import Frozen

MAX_POINTS = 6
MAX_FAMILY_POINTS = 4
MAX_SEARCH_POINTS = 5  # size of the extended space in the connectification search


class FiniteSpace(Frozen):
    """A topology on {0..size-1} given as the family of open masks."""

    __slots__ = ("size", "opens")

    def __init__(self, size: int, opens: frozenset[int]) -> None:
        if not 0 <= size <= MAX_POINTS:
            raise SizeTooLarge(f"finite spaces handle at most {MAX_POINTS} points")
        full = (1 << size) - 1
        if 0 not in opens or full not in opens:
            raise ParseError("a topology contains the empty set and the full set")
        if min(opens) < 0 or max(opens) > full:
            raise ParseError("open masks must fit the point set")
        _set_size(self, size)
        _set_opens(self, opens)

    @property
    def full(self) -> int:
        return (1 << self.size) - 1


# A search builds one per topology it finds: see intervals._set_lo.
_set_size, _set_opens = FiniteSpace._setters


def validate_topology(size: int, family) -> bool:
    """Check the full topology invariants, including closure under union
    and intersection of pairs."""
    family = frozenset(family)
    full = (1 << size) - 1
    if size < 0 or 0 not in family or full not in family:
        return False
    if any(m < 0 or m > full for m in family):
        return False
    elems = sorted(family)
    for i, a in enumerate(elems):
        for b in elems[i + 1 :]:
            if (a | b) not in family or (a & b) not in family:
                return False
    return True


def to_preorder(space: FiniteSpace) -> tuple[int, ...]:
    """The rows of the specialization preorder: row x, the points y with x
    below y (every open containing x contains y), is the least open of x,
    the intersection of the opens holding x."""
    rows = []
    full = space.full
    for x in range(space.size):
        m = full
        for o in space.opens:
            if (o >> x) & 1:
                m &= o
        rows.append(m)
    return tuple(rows)


def _table(up: tuple[int, ...]) -> tuple[list[int], int, list[int]]:
    """The opens of the space whose least opens are the rows ``up``, in
    ascending order and as a bitmap ``fam`` (bit m set when mask m is open),
    and ``above[mask]``, the AND of the rows of the mask's points (all points
    for the empty mask).

    Each is built per mask from the mask without its lowest point; a mask
    is open when the union of its points' rows stays inside it.
    """
    full = (1 << len(up)) - 1
    reach = [0] * (full + 1)
    above = [full] * (full + 1)
    opens = [0]
    fam = 1
    for mask in range(1, full + 1):
        low = mask & -mask
        row = up[low.bit_length() - 1]
        r = reach[mask ^ low] | row
        reach[mask] = r
        above[mask] = above[mask ^ low] & row
        if r == mask:
            opens.append(mask)
            fam |= 1 << mask
    return opens, fam, above


def _space(up: tuple[int, ...]) -> FiniteSpace:
    """The space whose least opens are the rows ``up``."""
    return FiniteSpace(len(up), frozenset(_table(up)[0]))


def _family_enumeration(n: int):
    full = (1 << n) - 1
    optional = [m for m in range(full + 1) if m != 0 and m != full]
    for sel in range(1 << len(optional)):
        fam = {0, full}
        for j, m in enumerate(optional):
            if (sel >> j) & 1:
                fam.add(m)
        if validate_topology(n, fam):
            yield FiniteSpace(n, frozenset(fam))


# Bit s of _SUBSETS[u] is set when mask s lies inside u, for every mask u
# of a base that is extended (at most MAX_POINTS - 1 points).
_SUBSETS = tuple(sum(1 << s for s in range(u + 1) if s & u == s) for u in range(1 << (MAX_POINTS - 1)))


def _extensions(up: tuple[int, ...], tops: int | None = None):
    """Every preorder on one point p more whose rows without p are ``up``, as
    (rows, A, B): A the open of points above p, B the closed set below it,
    and every point of B below every point of A, that is A inside
    ``above[B]``.  So the A that fit B are the bits of the bitmap of opens
    inside ``_SUBSETS[above[B]]``; ``tops``, a bitmap of opens, keeps only
    those A.  The rows are ``up`` with p added to the rows of B, built once
    for a B that some A fits, and A with p for p."""
    opens, fam, above = _table(up)
    if tops is not None:
        fam = tops
    full = len(above) - 1
    p = full + 1
    for o in opens:
        b = full ^ o
        fits = fam & _SUBSETS[above[b]]
        if fits:
            rows_b = tuple([u | p if b >> i & 1 else u for i, u in enumerate(up)])
            while fits:
                low = fits & -fits
                a = low.bit_length() - 1
                yield rows_b + (a | p,), a, b
                fits ^= low


def _preorders(n: int):
    """Every preorder on n points as its row tuple: each one on n - 1 points
    extended by each of its (A, B) pairs."""
    if n == 0:
        yield ()
        return
    for up in _preorders(n - 1):
        for rows, _, _ in _extensions(up):
            yield rows


def _extension_count(up: tuple[int, ...]) -> int:
    """How many pairs `_extensions` yields for ``up``, counted bit-parallel:
    the bits of ``fam`` inside ``_SUBSETS[above[B]]``, added up over B."""
    opens, fam, above = _table(up)
    full = len(above) - 1
    return sum((fam & _SUBSETS[above[full ^ o]]).bit_count() for o in opens)


def enumerate_topologies(n: int, method: str = "preorder"):
    """Stream every topology on n labeled points.

    The direct family filter is the independent oracle (n at most 4); the
    preorders, sorted into the lexicographic order of their rows, scale to 6.
    Both must agree on counts where they overlap.
    """
    if n < 0:
        raise SizeTooLarge("negative point count")
    if method == "family":
        if n > MAX_FAMILY_POINTS:
            raise SizeTooLarge(f"family enumeration handles at most {MAX_FAMILY_POINTS} points")
        yield from _family_enumeration(n)
    elif method == "preorder":
        if n > MAX_POINTS:
            raise SizeTooLarge(f"preorder enumeration handles at most {MAX_POINTS} points")
        yield from map(_space, sorted(_preorders(n)))
    else:
        raise ValueError(f"unknown enumeration method {method!r}")


def count_topologies(n: int, method: str = "preorder") -> int:
    """Count topologies; the preorder method adds up, over every preorder on
    n - 1 points, how many (A, B) pairs extend it by the last point, building
    no n-point rows or opens."""
    if method == "preorder" and 0 <= n <= MAX_POINTS:
        return sum(map(_extension_count, _preorders(n - 1))) if n else 1
    return sum(1 for _ in enumerate_topologies(n, method))


# --------------------------------------------------------------------------
# axioms, as rules on the preorder rows (the least opens)
# --------------------------------------------------------------------------


def _components(rows: tuple[int, ...]) -> list[int]:
    """The components as masks: each row is connected, its point lying below
    the rest of it, so each row joins every component it meets."""
    comps: list[int] = []
    for r in rows:
        rest = []
        for c in comps:
            if c & r:
                r |= c
            else:
                rest.append(c)
        comps = rest + [r]
    return comps


def _points_open(rows: tuple[int, ...]) -> bool:
    return all(r == 1 << i for i, r in enumerate(rows))


def _normal_pairs(rows: tuple[int, ...]) -> bool:
    """Disjoint closed sets lie in disjoint opens exactly when no two points
    have disjoint closures and meeting rows; the closure of f is the set of
    points x with f in rows[x]."""
    n = len(rows)
    down = [sum(1 << x for x in range(n) if (rows[x] >> f) & 1) for f in range(n)]
    return not any(
        rows[f] & rows[g] and not down[f] & down[g] for f in range(n) for g in range(f + 1, n)
    )


# Each check takes the least opens, rows[i] for point i.
_AXIOM_CHECKS = {
    "T0": lambda rows: len(set(rows)) == len(rows),
    "T1": _points_open,
    # A row holding y holds y's row, so rows are pairwise disjoint exactly
    # when each row is its own point.
    "T2": _points_open,
    # One component, or none for the empty space.
    "connected": lambda rows: len(_components(rows)) < 2,
    # Every row is a connected open neighbourhood of its point.
    "locally_connected": lambda rows: True,
    "normal-pairs": _normal_pairs,
}
AXIOMS = tuple(_AXIOM_CHECKS)

# The axioms every dense, connected one-point extension the search builds
# answers alike, so it never asks them: connected, since its A meets every
# component of the base; locally connected, since every row is a connected
# open; and neither T1 nor T2, since p's least open is A with p added, and
# A is not empty because the base is dense.
_DECIDED = {"connected": True, "locally_connected": True, "T1": False, "T2": False}


def _axiom_check(axiom: str):
    fn = _AXIOM_CHECKS.get(axiom)
    if fn is None:
        raise ValueError(f"unknown axiom {axiom!r}; choose from {', '.join(AXIOMS)}")
    return fn


def check_axiom(space: FiniteSpace, axiom: str) -> bool:
    return _axiom_check(axiom)(to_preorder(space))


# --------------------------------------------------------------------------
# the connectification search
# --------------------------------------------------------------------------


def search_one_point_connectifications(x: FiniteSpace, axiom: str) -> list[FiniteSpace]:
    """All topologies on one extra point that connectify x with the axiom.

    An extension of x by a point p is fixed by the open A of points above p
    and the closed B of points below p, with every point of B below every
    point of A.  Its rows are those of x with p added to the rows of B, plus
    {p} with A for p, so its subspace on the original points is x.  x is
    dense exactly when {p} is not open, that is when A is not empty.

    A component of x meeting B meets A too, B lying below A, so the
    extension is connected exactly when A meets every component of x.  The
    axiom is asked of those candidates' rows only where the construction
    leaves it open (`_DECIDED`): a connected or locally connected search
    keeps every candidate, and a T1 or T2 search finds none.  Keeps the
    extensions that satisfy it, in the lexicographic order of their rows,
    and reads the opens of those only off x's.  The extra point always
    carries the last label.
    """
    if x.size + 1 > MAX_SEARCH_POINTS:
        raise SizeTooLarge(f"search handles base spaces up to {MAX_SEARCH_POINTS - 1} points")
    satisfies = _axiom_check(axiom)
    decided = _DECIDED.get(axiom)
    if decided is False:
        return []
    up = to_preorder(x)
    comps = _components(up)
    opens = x.opens
    tops = sum(1 << a for a in opens if a and all(c & a for c in comps))
    found = sorted((rows, a, b) for rows, a, b in _extensions(up, tops) if decided or satisfies(rows))
    p_bit = 1 << x.size
    return [
        FiniteSpace(
            x.size + 1, frozenset([o for o in opens if not o & b] + [o | p_bit for o in opens if o & a == a])
        )
        for _, a, b in found
    ]


# --------------------------------------------------------------------------
# textual dump
# --------------------------------------------------------------------------


# Each point's text and bit, one table read both ways: each mask's text is
# printed from it, and each token of a literal is read back through it.
_POINT_OF = {str(x): 1 << x for x in range(MAX_POINTS)}
_PAST_LAST = 1 << MAX_POINTS
_MASK_TEXT = tuple(
    "{" + ",".join(t for t, bit in _POINT_OF.items() if m & bit) + "}"
    for m in range(1 << MAX_POINTS)
)
_MASK_ORDER = tuple((bin(m).count("1"), m) for m in range(1 << MAX_POINTS))  # size, then mask


def topology_literal(s: FiniteSpace) -> str:
    """Stable one-line rendering, opens ordered by size then mask."""
    return ",".join(_MASK_TEXT[m] for m in sorted(s.opens, key=_MASK_ORDER.__getitem__))


_LITERAL_RE = re.compile(r"(\{[0-9,]*\})(,\{[0-9,]*\})*\Z")


def parse_topology_literal(text: str) -> FiniteSpace:
    flat = "".join(text.split())
    if not _LITERAL_RE.match(flat):
        raise ParseError(f"bad topology literal: {text!r}")
    masks = []
    for group in flat[1:-1].split("},{"):
        mask = 0
        if group:
            for tok in group.split(","):
                if not tok:
                    raise ParseError(f"bad open set in literal: {{{group}}}")
                # A token missing from the table names a point past the last,
                # which `FiniteSpace` refuses once every group has parsed.
                mask |= _POINT_OF.get(tok.lstrip("0") or "0", _PAST_LAST)
        masks.append(mask)
    n = max(masks).bit_length()
    try:
        space = FiniteSpace(n, frozenset(masks))
    except ParseError as exc:  # every mask fits n bits
        raise ParseError(f"not a topology: {text!r} ({exc})") from exc
    if not validate_topology(n, space.opens):
        raise ParseError(f"family is not closed under union/intersection: {text!r}")
    return space
