"""Independent checks of onepoint's outputs.

Every check reads the text the program printed, parses it with the grammar
in ``refsets`` and decides the claim with the reference algebra there (or
with ``reffinite`` for finite topologies).  Nothing here imports onepoint or
calls its ``verify_*`` functions.  A check raises CheckFailure (or
RecordError for output that does not parse) on the first false claim.
"""

from __future__ import annotations

import re

import refsets as rs
import reffinite as rf


class CheckFailure(Exception):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


def contains(piece, q) -> bool:
    lo, hi, lc, hc = piece
    above = lo is None or q > lo or (q == lo and lc)
    below = hi is None or q < hi or (q == hi and hc)
    return above and below


class SpaceRef:
    """The checker's own view of one space, plus the escape filters read
    from the program's ``connectify`` record once it has been checked."""

    def __init__(self, text: str):
        self.pieces = rs.canonical(rs.parse_set(text))
        self.compact = [rs.is_compact_piece(p) for p in self.pieces]
        self.filters = None  # [(direction, anchor)] per component

    def element(self, i: int, n: int) -> list:
        """Filter element n of component i, as canonical pieces."""
        direction, anchor = self.filters[i]
        block = rs.filter_block(direction, anchor, n)
        piece = self.pieces[i]
        line = rs.Line.over([block, piece])
        return line.pieces(line.interval(block) & line.interval(piece))


_OPEN = re.compile(r"(I|II) trace=(.*?)(?: tails=(\S+))?\Z")
_TAIL = re.compile(r"C#(\d+):(\d+)\Z")


def parse_open(text: str):
    """An extension open record: (is_type_II, trace pieces, tails or None)."""
    m = _OPEN.match(text)
    expect(m is not None, f"bad open-set record {text!r}")
    kind, trace, tails = m.groups()
    expect((kind == "II") == (tails is not None), f"tails on the wrong type in {text!r}")
    idx = None
    if tails is not None:
        idx = []
        for k, tok in enumerate(tails.split(",")):
            t = _TAIL.match(tok)
            expect(t is not None and int(t.group(1)) == k, f"bad tail list {tails!r}")
            idx.append(int(t.group(2)))
    return kind == "II", rs.parse_set(trace), idx


def parse_spec(text: str):
    """A closed-set argument of ``witness normal``: (has_p, trace pieces)."""
    if text == "p":
        return True, []
    if text.startswith("p+"):
        return True, rs.parse_set(text[2:])
    return False, rs.parse_set(text)


class OpenSets:
    """Extension open sets of one space, judged on one shared atom line."""

    def __init__(self, ref: SpaceRef, opens, extra_sets=(), extra_points=()):
        self.ref = ref
        self.opens = opens
        self.elements = []
        for is2, _, tails in opens:
            if is2:
                expect(len(tails) == len(ref.pieces), "one tail per component is required")
                self.elements.append([ref.element(i, t) for i, t in enumerate(tails)])
            else:
                self.elements.append(None)
        lists = [ref.pieces] + [tr for _, tr, _ in opens] + list(extra_sets)
        lists += [e for els in self.elements if els for e in els]
        self.line = rs.Line.over(*lists, extra=extra_points)
        self.x = self.line.mask(ref.pieces)
        self.traces = [self.line.mask(tr) for _, tr, _ in opens]

    def check_open(self, k: int, label: str) -> None:
        """Trace open in X, and a type-II set holds its declared tails."""
        t = self.traces[k]
        expect(self.line.is_open_in(t, self.x), f"{label} trace is not open in X")
        els = self.elements[k]
        if els is None:
            return
        for i, el in enumerate(els):
            e = self.line.mask(el)
            expect(e != 0, f"{label} filter element of C#{i} is empty")
            expect(e & ~t == 0, f"{label} misses its declared tail in C#{i}")

    def reaches(self, t: int, i: int) -> bool:
        """The trace contains a filter element of component i."""
        direction, _ = self.ref.filters[i]
        return bool(t & rs.escape_atom(self.line, direction))


def _pair(ref: SpaceRef, lines, extra_sets=(), extra_points=()) -> OpenSets:
    expect(len(lines) == 2 and lines[0].startswith("U = ") and lines[1].startswith("V = "),
           f"expected U and V records, got {lines!r}")
    opens = [parse_open(lines[0][4:]), parse_open(lines[1][4:])]
    sets = OpenSets(ref, opens, extra_sets, extra_points)
    sets.check_open(0, "U")
    sets.check_open(1, "V")
    expect(sets.traces[0] & sets.traces[1] == 0, "U and V overlap")
    expect(not (opens[0][0] and opens[1][0]), "both sides hold the extra point")
    return sets


def check_hausdorff(ref: SpaceRef, y: str, z: str, lines) -> None:
    pts = [None if a == "p" else rs.parse_value(a) for a in (y, z)]
    sets = _pair(ref, lines, extra_points=[q for q in pts if q is not None])
    for k, q in enumerate(pts):
        side = "UV"[k]
        if q is None:
            expect(sets.opens[k][0], f"{side} must hold the extra point")
        else:
            expect(sets.line.point(q) & sets.x, f"{q} is not a point of X")
            expect(sets.line.point(q) & sets.traces[k], f"{side} misses {q}")


def check_normal(ref: SpaceRef, fspec: str, gspec: str, lines) -> None:
    specs = [parse_spec(fspec), parse_spec(gspec)]
    sets = _pair(ref, lines, extra_sets=[tr for _, tr in specs])
    for k, (has_p, trace) in enumerate(specs):
        side = "UV"[k]
        if has_p:
            expect(sets.opens[k][0], f"{side} must hold the extra point")
        expect(sets.line.mask(trace) & ~sets.traces[k] == 0, f"{side} does not contain its closed set")


# --------------------------------------------------------------------------
# verdict-style verbs
# --------------------------------------------------------------------------


def check_refusal(ref: SpaceRef, rc: int, lines) -> None:
    expect(any(ref.compact), "refused a space without a compact component")
    expect(rc == 3 and len(lines) == 1, f"refusal needs exit 3 and one line, got {rc}")
    m = re.fullmatch(r"Refused component=(\S+)", lines[0])
    expect(m is not None, f"bad refusal record {lines[0]!r}")
    piece = rs.parse_interval(m.group(1))
    expect(piece in ref.pieces and rs.is_compact_piece(piece), f"{m.group(1)} is not a compact component")


def check_components(ref: SpaceRef, rc: int, lines) -> None:
    expect(rc == 0, f"exit {rc}")
    expect(len(lines) == len(ref.pieces), "wrong number of components")
    for i, (line, piece) in enumerate(zip(lines, ref.pieces)):
        m = re.fullmatch(r"C#(\d+)=(\S+)", line)
        expect(m is not None and int(m.group(1)) == i, f"bad component record {line!r}")
        expect(rs.parse_interval(m.group(2)) == piece, f"component {i} is {line}")


def _flag(b: bool) -> str:
    return "true" if b else "false"


def check_check(ref: SpaceRef, rc: int, lines) -> None:
    n = len(ref.pieces)
    expect(rc == 0 and len(lines) == 3 + 2 * n, f"exit {rc}, {len(lines)} lines")
    expect(lines[0].startswith("space=") and rs.parse_set(lines[0][6:]) == ref.pieces, "space line")
    expect(lines[1] == f"space_compact={_flag(all(ref.compact))}", "space_compact line")
    for i in range(n):
        m = re.fullmatch(rf"C#{i}=(\S+) compact=(true|false)", lines[2 + i])
        expect(m is not None, f"bad component line {lines[2 + i]!r}")
        expect(rs.parse_interval(m.group(1)) == ref.pieces[i], f"component {i}")
        expect(m.group(2) == _flag(ref.compact[i]), f"compactness of component {i}")
    expect(lines[2 + n] == "locally_connected=true", "interval spaces are locally connected")
    for i in range(n):
        m = re.fullmatch(rf"step {i + 1} C#{i}=(\S+) window=(\S+) trace_matches=true", lines[3 + n + i])
        expect(m is not None, f"bad window line {lines[3 + n + i]!r}")
        w = rs.parse_interval(m.group(2))
        expect(not w[2] and not w[3], f"window {m.group(2)} is not open")
        line = rs.Line.over(ref.pieces, [w])
        trace = line.interval(w) & line.mask(ref.pieces)
        expect(trace == line.interval(ref.pieces[i]), f"window {m.group(2)} does not trace to C#{i}")


def check_connectify(ref: SpaceRef, rc: int, lines) -> None:
    if any(ref.compact):
        check_refusal(ref, rc, lines)
        return
    n = len(ref.pieces)
    expect(rc == 0 and len(lines) == 1 + n, f"exit {rc}, {len(lines)} lines")
    expect(lines[0] == f"connectifiable components={n}", f"bad verdict {lines[0]!r}")
    filters = []
    for i, line in enumerate(lines[1:]):
        m = re.fullmatch(rf"filter C#{i}=(\S+) dir=(\S+) anchor=(\S+)", line)
        expect(m is not None, f"bad filter record {line!r}")
        piece = ref.pieces[i]
        expect(rs.parse_interval(m.group(1)) == piece, f"filter {i} names the wrong component")
        direction = rs.parse_direction(m.group(2))
        anchor = rs.parse_value(m.group(3))
        expect(rs.valid_direction(piece, direction), f"{m.group(2)} is not a non-compact end of C#{i}")
        expect(anchor is not None and contains(piece, anchor), f"anchor {m.group(3)} lies outside C#{i}")
        filters.append((direction, anchor))
    ref.filters = filters


def check_compactify(ref: SpaceRef, rc: int, lines) -> None:
    if all(ref.compact):
        expect(rc == 3 and len(lines) == 1, f"exit {rc}")
        m = re.fullmatch(r"Refused space=(.*) reason=space-already-compact", lines[0])
    else:
        expect(rc == 0 and len(lines) == 1, f"exit {rc}")
        m = re.fullmatch(r"compact_extension base=(.*)", lines[0])
    expect(m is not None and rs.parse_set(m.group(1)) == ref.pieces, f"bad record {lines[0]!r}")


def check_witness(ref: SpaceRef, rc: int, lines, verb: str, a: str, b: str) -> None:
    if any(ref.compact):
        check_refusal(ref, rc, lines)
        return
    expect(ref.filters is not None, "witness checked before its space's connectify record")
    expect(rc == 0, f"exit {rc}")
    if verb == "hausdorff":
        check_hausdorff(ref, a, b, lines)
    else:
        check_normal(ref, a, b, lines)


# --------------------------------------------------------------------------
# certificates and the clopen falsifier
# --------------------------------------------------------------------------


def check_density(ref: SpaceRef, lines) -> None:
    m = re.fullmatch(r"certificate density samples=(\d+)", lines[0])
    expect(m is not None and len(lines) == 1 + int(m.group(1)), "bad density header")
    for k, line in enumerate(lines[1:], 1):
        s = re.fullmatch(rf"step {k} tails=(\S+) trace=(.*) nonempty=true", line)
        expect(s is not None, f"bad density step {line!r}")
        sets = OpenSets(ref, [parse_open(f"II trace={s.group(2)} tails={s.group(1)}")])
        expect(sets.traces[0] != 0, f"density step {k} has an empty trace")
        sets.check_open(0, f"density step {k}")


def check_fidelity(ref: SpaceRef, lines) -> None:
    m = re.fullmatch(r"certificate fidelity samples=(\d+)", lines[0])
    expect(m is not None and len(lines) == 1 + 2 * int(m.group(1)), "bad fidelity header")
    n = int(m.group(1))
    for k, line in enumerate(lines[1:], 1):
        word = "down" if k <= n else "up"
        prefix = f"step {k} {word} "
        expect(line.startswith(prefix), f"bad fidelity step {line!r}")
        u = parse_open(line[len(prefix):])
        expect(word == "down" or not u[0], "a lifted base open must be type I")
        OpenSets(ref, [u]).check_open(0, f"fidelity step {k}")


def check_connectedness(ref: SpaceRef, lines) -> None:
    n = len(ref.pieces)
    expect(len(lines) == n + 2 and lines[0] == f"certificate connectedness components={n}", "bad header")
    expect(lines[-1] == "conclusion clopen-with-p=whole-extension", "bad conclusion")
    for i in range(n):
        m = re.fullmatch(rf"step {i + 1} C#{i}=(\S+) tail=(.*?) nonempty=.*", lines[1 + i])
        expect(m is not None, f"bad connectedness step {lines[1 + i]!r}")
        expect(rs.parse_interval(m.group(1)) == ref.pieces[i], f"step {i + 1} names the wrong component")
        tail = rs.parse_set(m.group(2))
        expect(tail == ref.element(i, 0), f"step {i + 1} tail is not filter element 0")
        line = rs.Line.over(tail, [ref.pieces[i]])
        t, c = line.mask(tail), line.interval(ref.pieces[i])
        expect(t != 0 and line.is_closed_in(t, c), f"step {i + 1} tail is not a nonempty closed subset")
        expect(t & rs.escape_atom(line, ref.filters[i][0]), f"step {i + 1} tail stops short of the end")


_FALS = re.compile(
    r"not-clopen side=(set|complement) reason=(TraceNotOpen|MissingTail)"
    r"(?: component=C#(\d+))?(?: boundary=(\S+))?\Z"
)


def check_falsifier(ref: SpaceRef, candidate: str, lines) -> None:
    expect(len(lines) == 1, "one outcome line expected")
    is2, trace, _ = parse_open(candidate)
    out = lines[0]
    if out.startswith("trivial which="):
        line = rs.Line.over(ref.pieces, trace)
        t, x = line.mask(trace), line.mask(ref.pieces)
        if out == "trivial which=empty":
            expect(not is2 and t == 0, "only the empty type-I set is trivially empty")
        else:
            expect(out == "trivial which=whole" and is2 and t == x, f"not the whole extension: {out}")
        return
    m = _FALS.match(out)
    expect(m is not None, f"bad falsifier outcome {out!r}")
    side, reason, comp, boundary = m.groups()
    pts = [rs.parse_value(boundary)] if boundary else []
    sets = OpenSets(ref, [(False, trace, None)], extra_points=pts)
    line, x, t = sets.line, sets.x, sets.traces[0]
    open_t = line.is_open_in(t, x)
    all_reach = all(sets.reaches(t, i) for i in range(len(ref.pieces)))
    if side == "complement":
        expect(open_t and (not is2 or all_reach), "the set itself is open, so evidence must be about it")
        t, is2 = x & ~t, not is2
        open_t = line.is_open_in(t, x)
    if reason == "TraceNotOpen":
        expect(not open_t, f"{side} trace is open after all")
        if boundary:
            b = line.point(pts[0])
            expect(b & t and (b & ~x or b & line.closure(x & ~t)), f"{boundary} is not a boundary point")
    else:
        expect(open_t and is2 and comp is not None, "MissingTail needs an open type-II trace")
        expect(not sets.reaches(t, int(comp)), f"{side} does reach the end of C#{comp}")


# --------------------------------------------------------------------------
# the finite oracle
# --------------------------------------------------------------------------


class FiniteRef:
    """Reference answers for searches on bases of at most 3 points, from a
    brute force over families of subsets, and stored counts for 4 points."""

    def __init__(self):
        self._families = {}
        self._counts = None

    def small(self, base_n: int, base, axiom: str) -> set:
        if base_n + 1 not in self._families:
            self._families[base_n + 1] = rf.topologies_by_families(base_n + 1)
        return {t for t in self._families[base_n + 1] if rf.is_connectification(base_n, base, t, axiom)}

    def count(self, base, axiom: str) -> int:
        if self._counts is None:
            self._counts = rf.load_counts()
        return self._counts["counts"][rf.key(base)][self._counts["axioms"].index(axiom)]


def check_enumerate(n: int, rc: int, lines) -> None:
    expect(rc == 0 and lines == [f"count={rf.TOPOLOGY_COUNTS[n]}"], f"topologies on {n} points: {lines}")


def check_search(fref: FiniteRef, base_n: int, literal: str, axiom: str, rc: int, lines) -> None:
    expect(rc == 0 and lines and lines[0].startswith("found="), f"exit {rc}")
    count = int(lines[0][6:])
    expect(len(lines) == 1 + count, "found= disagrees with the listed topologies")
    base = rf.parse_literal(literal)
    got = [rf.parse_literal(t) for t in lines[1:]]
    expect(len(set(got)) == count, "a topology is listed twice")
    for t in got:
        expect(rf.is_connectification(base_n, base, t, axiom), f"{rf.literal(base_n + 1, t)} fails the search conditions")
    if axiom == "T2" and rf.satisfies(base_n, base, "T1"):
        expect(count == 0, "a T1 base got a T2 connectification")
    if base_n <= 3:
        expect(set(got) == fref.small(base_n, base, axiom), "differs from the brute force over families")
    else:
        expect(count == fref.count(base, axiom), f"found={count}, reference {fref.count(base, axiom)}")


# --------------------------------------------------------------------------
# dispatch by op kind
# --------------------------------------------------------------------------


class Checker:
    """Checks ops by kind; keeps one SpaceRef per space so that witness and
    certificate checks see the filters read from that space's verdict."""

    def __init__(self):
        self.spaces = {}
        self.finite = FiniteRef()

    def space(self, text: str) -> SpaceRef:
        if text not in self.spaces:
            self.spaces[text] = SpaceRef(text)
        return self.spaces[text]

    def check(self, kind: str, ctx: tuple, rc: int, lines: list, err: str):
        """None when the output is right, else a one-line reason."""
        try:
            self._check(kind, ctx, rc, lines, err)
        except (CheckFailure, ValueError, KeyError, IndexError) as exc:  # RecordError is a ValueError
            return f"{kind} {ctx[0][:60]!r}: {type(exc).__name__}: {exc}"
        return None

    def _check(self, kind, ctx, rc, lines, err):
        if kind == "enumerate":
            check_enumerate(int(ctx[0]), rc, lines)
        elif kind == "search":
            check_search(self.finite, int(ctx[1]), ctx[0], ctx[2], rc, lines)
        elif kind == "oversized":
            expect(rc == 2 and not lines and err.strip(), f"oversized input gave exit {rc}")
        else:
            ref = self.space(ctx[0])
            if kind == "components":
                check_components(ref, rc, lines)
            elif kind == "check":
                check_check(ref, rc, lines)
            elif kind == "connectify":
                check_connectify(ref, rc, lines)
            elif kind == "compactify":
                check_compactify(ref, rc, lines)
            elif kind in ("hausdorff", "normal"):
                check_witness(ref, rc, lines, kind, ctx[1], ctx[2])
            else:
                expect(ref.filters is not None, f"{kind} checked before its space's connectify record")
                if kind == "density":
                    check_density(ref, lines)
                elif kind == "fidelity":
                    check_fidelity(ref, lines)
                elif kind == "connectedness":
                    check_connectedness(ref, lines)
                elif kind == "falsifier":
                    check_falsifier(ref, ctx[1], lines)
                else:
                    raise CheckFailure(f"unknown op kind {kind!r}")
