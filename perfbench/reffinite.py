"""Reference finite topology, independent of onepoint.finite.

A topology on {0..n-1} is a frozenset of open bitmasks.  Everything here is
decided through the minimal open sets U_x (the intersection of the opens
holding x), which is not how onepoint.finite decides any of it:

* T1 and T2 both mean discrete, since a finite T1 space is discrete;
* connected means the comparability graph of the specialization order is
  connected;
* locally connected means every U_x is connected;
* normal-pairs means disjoint closed F and G have disjoint up-closures.

Run as a script, it regenerates ``finite_counts.json``: the number of
one-point connectifications of every 4-point base under every axiom, found
by extending the base's specialization order by one point.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

AXIOMS = ("T0", "T1", "T2", "connected", "locally_connected", "normal-pairs")

#: OEIS A000798: topologies on n labeled points.
TOPOLOGY_COUNTS = (1, 1, 4, 29, 355, 6942)

COUNTS_FILE = Path(__file__).with_name("finite_counts.json")


def minimal_opens(n: int, opens) -> list[int]:
    full = (1 << n) - 1
    out = []
    for x in range(n):
        m = full
        for o in opens:
            if (o >> x) & 1:
                m &= o
        out.append(m)
    return out


def is_topology(n: int, opens) -> bool:
    full = (1 << n) - 1
    if 0 not in opens or full not in opens or any(o < 0 or o > full for o in opens):
        return False
    return all((a | b) in opens and (a & b) in opens for a in opens for b in opens)


def connected_within(ups: list[int], mask: int) -> bool:
    """The points of mask form one class of the comparability graph."""
    if not mask:
        return True
    start = (mask & -mask).bit_length() - 1
    seen, todo = 1 << start, [start]
    while todo:
        x = todo.pop()
        for y in range(len(ups)):
            if (mask >> y) & 1 and not (seen >> y) & 1 and ((ups[x] >> y) & 1 or (ups[y] >> x) & 1):
                seen |= 1 << y
                todo.append(y)
    return seen == mask


def up_closure(ups: list[int], mask: int) -> int:
    out = 0
    for x in range(len(ups)):
        if (mask >> x) & 1:
            out |= ups[x]
    return out


def satisfies(n: int, opens, axiom: str) -> bool:
    ups = minimal_opens(n, opens)
    full = (1 << n) - 1
    if axiom == "T0":
        return len(set(ups)) == n
    if axiom in ("T1", "T2"):
        return all(u == 1 << x for x, u in enumerate(ups))
    if axiom == "connected":
        return connected_within(ups, full)
    if axiom == "locally_connected":
        return all(connected_within(ups, u) for u in ups)
    if axiom == "normal-pairs":
        closeds = [full ^ o for o in opens]
        return all(
            not (up_closure(ups, f) & up_closure(ups, g))
            for f in closeds
            for g in closeds
            if not f & g
        )
    raise ValueError(f"unknown axiom {axiom!r}")


def is_connectification(base_n: int, base, opens, axiom: str) -> bool:
    """opens, on base_n + 1 points, restricts to base, keeps it dense, is
    connected and meets the axiom."""
    n = base_n + 1
    prefix = (1 << base_n) - 1
    if not is_topology(n, opens):
        return False
    if frozenset(o & prefix for o in opens) != base:
        return False
    if any(o and not o & prefix for o in opens):  # a nonempty open missing the base
        return False
    return satisfies(n, opens, "connected") and satisfies(n, opens, axiom)


def topologies_by_families(n: int) -> list[frozenset]:
    """Every topology on n points, filtered from all families of subsets."""
    full = (1 << n) - 1
    optional = list(range(1, full))
    out = []
    for sel in range(1 << len(optional)):
        fam = {0, full}
        fam.update(m for j, m in enumerate(optional) if (sel >> j) & 1)
        if is_topology(n, fam):
            out.append(frozenset(fam))
    return out


def opens_of(ups: list[int]) -> frozenset:
    """The up-closed sets of a specialization order."""
    return frozenset(
        s for s in range(1 << len(ups)) if all(ups[x] | s == s for x in range(len(ups)) if (s >> x) & 1)
    )


def extensions(base_n: int, base) -> list[frozenset]:
    """Every topology on one more point that restricts to base.

    The new point p gets the up-set U of points above it and the down-set D
    of points below it; the order stays transitive exactly when U is
    up-closed, D is down-closed and every point of D lies below every point
    of U.
    """
    ups = minimal_opens(base_n, base)
    p = 1 << base_n
    out = []
    for u in range(p):
        if up_closure(ups, u) != u:
            continue
        for d in range(p):
            if any((d >> x) & 1 and (ups[y] >> x) & 1 and not (d >> y) & 1 for x in range(base_n) for y in range(base_n)):
                continue
            if any((d >> x) & 1 and (u | ups[x]) != ups[x] for x in range(base_n)):
                continue
            ext = [ups[x] | (p | u if (d >> x) & 1 else 0) for x in range(base_n)] + [p | u]
            out.append(opens_of(ext))
    return out


def connectifications(base_n: int, base, axiom: str) -> set[frozenset]:
    return {t for t in extensions(base_n, base) if is_connectification(base_n, base, t, axiom)}


def literal(n: int, opens) -> str:
    def fmt(mask: int) -> str:
        return "{" + ",".join(str(x) for x in range(n) if (mask >> x) & 1) + "}"

    return ",".join(fmt(m) for m in sorted(opens))


def parse_literal(text: str) -> frozenset:
    if not re.fullmatch(r"\{[0-9,]*\}(,\{[0-9,]*\})*", text):
        raise ValueError(f"bad topology literal {text!r}")
    masks = set()
    for group in re.findall(r"\{([0-9,]*)\}", text):
        toks = group.split(",") if group else []
        if any(not t or len(t) > 1 for t in toks):
            raise ValueError(f"bad point in {text!r}")
        m = 0
        for t in toks:
            m |= 1 << int(t)
        masks.add(m)
    return frozenset(masks)


def key(opens) -> str:
    return ",".join(str(m) for m in sorted(opens))


def load_counts() -> dict:
    return json.loads(COUNTS_FILE.read_text())


def main() -> None:
    table = {
        key(base): [len(connectifications(4, base, ax)) for ax in AXIOMS]
        for base in sorted(topologies_by_families(4), key=sorted)
    }
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in table.items())
    COUNTS_FILE.write_text(f'{{"axioms": {json.dumps(AXIOMS)}, "counts": {{\n{rows}\n}}}}\n')
    print(f"wrote {len(table)} bases to {COUNTS_FILE.name}")


if __name__ == "__main__":
    main()
