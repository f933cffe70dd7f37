"""Oracle on finite topological spaces (at most 6 points).

Subsets of {0..n-1} are n-bit masks.  Every finite topology is Alexandrov:
row ``up[i]`` of its specialization preorder is the least open of point i,
and the module works on these row tuples alone.  The walk yields them, the
axioms read them and the search builds them; a ``FiniteSpace`` (the family
of opens) is made only for a space the module returns.  The walk bounds row
i by the AND of the earlier rows that hold i (transitivity) and visits only
the submasks of that bound, one rule giving the valid rows of each point.
Counting walks one point fewer: each preorder on n points is one on n - 1
extended by an (A, B) pair as in the search below, A empty or not, so the
count adds up how many pairs each of the walk's (n - 1)-point tuples has.

The search builds each one-point extension of a base x from x: one per
(up-set A, down-set B) pair of the new point p.  The extension is connected
exactly when p lies in the closure of every component of x, that is when A
meets every component, which is read off x's components once per search.
The opens of a found extension are x's opens missing B, and each open
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


def _space(up: tuple[int, ...]) -> FiniteSpace:
    """The space whose least opens are the rows ``up``.

    One table holds, per mask, the union of the up-sets of its points, built
    from the mask without its lowest point; a mask is open when that union
    stays inside it.
    """
    n = len(up)
    reach = [0] * (1 << n)
    opens = [0]
    for mask in range(1, 1 << n):
        low = mask & -mask
        r = reach[mask ^ low] | up[low.bit_length() - 1]
        reach[mask] = r
        if r == mask:
            opens.append(mask)
    return FiniteSpace(n, frozenset(opens))


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


def _row_choices(rows: list[int], n: int) -> list[int]:
    """The valid rows of point i = len(rows) of a preorder on n points, given
    the earlier rows, in ascending order.

    Row i must lie inside every earlier row holding i, so only the submasks
    of that bound (with bit i set) are walked; each one is kept when every
    earlier point in it brings its whole row.
    """
    bit = 1 << len(rows)
    cap = (1 << n) - 1
    for ur in rows:
        if ur & bit:
            cap &= ur
    free = cap & ~bit
    out = []
    sub = 0
    while True:
        m = sub | bit
        rest = m & (bit - 1)
        while rest:
            low = rest & -rest
            if rows[low.bit_length() - 1] & ~m:
                break
            rest ^= low
        else:
            out.append(m)
        if sub == free:
            return out
        sub = (sub - free) & free  # the next submask of free, ascending


def _preorder_enumeration(n: int):
    """Every preorder on n points as its row tuple, in lexicographic order."""
    rows: list[int] = []

    def extend(i: int):
        if i == n:
            yield tuple(rows)
            return
        for m in _row_choices(rows, n):
            rows.append(m)
            yield from extend(i + 1)
            rows.pop()

    yield from extend(0)


# Bit s of _SUBSETS[u] is set when mask s lies inside u, for every mask u
# of a base the count extends (at most MAX_POINTS - 1 points).
_SUBSETS = tuple(sum(1 << s for s in range(u + 1) if s & u == s) for u in range(1 << (MAX_POINTS - 1)))


def _extension_count(up: tuple[int, ...]) -> int:
    """The number of preorders on one point p more whose rows without p are
    ``up``: one per (A, B) pair, A the open of points above p and B the
    closed set below it, with A inside the row of every point of B.

    The mask loop of `_space` finds the opens, as a bitmap ``fam`` of them,
    and ``above[mask]``, the AND of the rows of the mask's points; the A
    that fit a closed B are then the bits of ``fam`` inside ``above[B]``.
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
    return sum((fam & _SUBSETS[above[full ^ o]]).bit_count() for o in opens)


def enumerate_topologies(n: int, method: str = "preorder"):
    """Stream every topology on n labeled points.

    The direct family filter is the independent oracle (n at most 4); the
    preorder walk scales to 6.  Both must agree on counts where they overlap.
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
        yield from map(_space, _preorder_enumeration(n))
    else:
        raise ValueError(f"unknown enumeration method {method!r}")


def count_topologies(n: int, method: str = "preorder") -> int:
    """Count topologies; the preorder method adds up, over every preorder on
    n - 1 points, how many ways it extends by the last point, building no
    n-point rows or opens."""
    if method == "preorder" and 0 <= n <= MAX_POINTS:
        return sum(map(_extension_count, _preorder_enumeration(n - 1))) if n else 1
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
    extension is connected exactly when A meets every component of x; only
    those A get their candidates' rows built, for the axiom, which is asked
    of them only where the construction leaves it open (`_DECIDED`): a
    connected or locally connected search keeps every candidate, and a T1
    or T2 search finds none.  Keeps the extensions that satisfy it, in the
    lexicographic order of their rows, and reads the opens of those only
    off x's.  The extra point always carries the last label.
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
    full = x.full
    p_bit = 1 << x.size
    found = []
    for a in opens - {0}:
        if not all(c & a for c in comps):
            continue
        below_a = sum(1 << i for i, u in enumerate(up) if (a | u) == u)
        for o in opens:
            b = full ^ o
            if b & ~below_a:
                continue
            rows = tuple(u | p_bit if (b >> i) & 1 else u for i, u in enumerate(up))
            rows += (a | p_bit,)
            if decided or satisfies(rows):
                found.append((rows, a, b))
    found.sort()
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
