import random
from collections import Counter
from functools import lru_cache
from itertools import product

import pytest

from onepoint import (
    AXIOMS,
    FiniteSpace,
    ParseError,
    SizeTooLarge,
    check_axiom,
    count_topologies,
    enumerate_topologies,
    parse_topology_literal,
    search_one_point_connectifications,
    to_preorder,
    topology_literal,
    validate_topology,
)
from onepoint import finite
from onepoint.finite import MAX_FAMILY_POINTS, MAX_POINTS, _axiom_check, _components, _extension_count
from onepoint.finite import _extensions, _preorders, _space
from references import _connected, count_preorders, parse_literal_by_tokens, preorder_walk, search_by_rows

SIERPINSKI = FiniteSpace(2, frozenset({0, 1, 3}))


def discrete(n):
    return FiniteSpace(n, frozenset(range(1 << n)))


def indiscrete(n):
    return FiniteSpace(n, frozenset({0, (1 << n) - 1}))


# --------------------------------------------------------------------------
# validation and the preorder bijection
# --------------------------------------------------------------------------


def test_validate_topology_examples():
    assert validate_topology(2, {0, 1, 3})
    assert not validate_topology(2, {0, 1, 2})  # missing the full set
    assert validate_topology(3, set(range(8)))
    assert not validate_topology(2, {0, 1, 2, 3} - {0})


def reference_preorder_fault(up):
    """The preorder check, over every (i, j) pair: the first fault of a row
    tuple (a row outside the points, not reflexive or not transitive), or
    None for a preorder."""
    n = len(up)
    for i, ui in enumerate(up):
        if ui >> n:
            return f"preorder row {i} ({ui}) holds points outside 0..{n - 1}"
        if not (ui >> i) & 1:
            return "preorders are reflexive"
        for j in range(n):
            if (ui >> j) & 1 and (up[j] | ui) != ui:
                return "preorders are transitive"
    return None


def test_preorder_fault_finds_each_fault():
    """Over every row tuple up to 3 points, with rows from -1 to
    2^(n+1) - 1, the check accepts exactly the preorders (as many as there
    are topologies) and finds each kind of fault."""
    outcomes = Counter()
    for n in range(4):
        for up in product(range(-1, 1 << (n + 1)), repeat=n):
            fault = reference_preorder_fault(up)
            outcomes[fault if fault is None or fault.startswith("preorders") else "range"] += 1
    assert outcomes[None] == 1 + 1 + 4 + 29
    assert len(outcomes) == 4  # accepted, out of range, not reflexive, not transitive
    assert reference_preorder_fault((-1,)) == "preorder row 0 (-1) holds points outside 0..0"
    assert reference_preorder_fault((0b1, 0b10, 0b1100)) == "preorder row 2 (12) holds points outside 0..2"


def test_preorder_round_trip_examples():
    assert _space(to_preorder(discrete(3))) == discrete(3)
    assert _space(to_preorder(indiscrete(3))) == indiscrete(3)
    assert _space(to_preorder(SIERPINSKI)) == SIERPINSKI
    assert to_preorder(SIERPINSKI) == (1, 3)  # up-masks: point 0 lies below point 1
    assert to_preorder(discrete(2)) == (1, 2)  # equality preorder
    assert to_preorder(indiscrete(2)) == (3, 3)  # total relation
    assert to_preorder(FiniteSpace(0, frozenset({0}))) == ()


def test_round_trip_everything_up_to_4():
    for n in range(5):
        for t in enumerate_topologies(n, "preorder"):
            p = to_preorder(t)
            assert _space(p) == t
            assert to_preorder(_space(p)) == p


def test_least_opens_are_preorder_rows_up_to_5():
    """The least opens of every topology of up to 5 points form a preorder,
    and its up-closed masks are the topology's opens again."""
    for n in range(6):
        for t in enumerate_topologies(n, "family" if n <= MAX_FAMILY_POINTS else "preorder"):
            p = to_preorder(t)
            assert reference_preorder_fault(p) is None, topology_literal(t)
            assert _space(p) == t, topology_literal(t)


# --------------------------------------------------------------------------
# dual enumerators
# --------------------------------------------------------------------------


A000798 = [1, 1, 4, 29, 355, 6942, 209527]  # topologies on n labeled points (OEIS)


def test_enumerator_counts_agree():
    """The preorder count, which adds up the one-point extensions of every
    preorder on one point fewer, equals the number of row tuples the
    extensions yield."""
    for n, want in enumerate(A000798):
        assert count_topologies(n, "preorder") == want
        if n <= 5:
            assert sum(1 for _ in _preorders(n)) == want
        if n <= 4:
            assert count_topologies(n, "family") == want


def test_count_matches_the_walk_counter():
    """Counting one-point extensions gives the walk counter's number
    (`references.count_preorders`) for every size up to the largest."""
    for n in range(MAX_POINTS + 1):
        assert count_topologies(n) == count_preorders(n), n


def test_extension_count_is_the_number_of_preorders_over_each_base():
    """Each preorder on n points is one extension of the preorder its first
    n - 1 rows make without point n - 1: grouping the n-point tuples that
    way gives every (n - 1)-point base, each as often as `_extension_count`
    of that base says."""
    for n in range(1, 6):
        last = 1 << (n - 1)
        groups = Counter(tuple(r & ~last for r in rows[:-1]) for rows in _preorders(n))
        bases = sorted(_preorders(n - 1))
        assert sorted(groups) == bases, n
        for base in bases:
            assert groups[base] == _extension_count(base), (n, base)


def test_counting_walks_one_point_fewer(monkeypatch):
    """`count_topologies(n)` reads the preorders on n - 1 points, one tuple
    per topology there, and never builds n-point ones.  `_preorders`
    recurses through itself, so only the outermost call's tuples are the
    ones the count reads."""
    walk = finite._preorders
    walked = []
    open_calls = []

    def counted(k):
        outermost = not open_calls
        open_calls.append(k)
        for rows in walk(k):
            if outermost:
                walked.append(k)
            yield rows
        open_calls.pop()

    monkeypatch.setattr(finite, "_preorders", counted)
    for n in range(1, MAX_POINTS + 1):
        walked.clear()
        assert count_topologies(n) == A000798[n]
        assert walked == [n - 1] * A000798[n - 1], n


def test_enumerator_sets_agree():
    for n in range(4):
        fam = set(enumerate_topologies(n, "family"))
        pre = set(enumerate_topologies(n, "preorder"))
        assert fam == pre


def reference_preorder_rows(n):
    """The walk as it was: every mask for row i, tested against every earlier row."""
    if n == 0:
        yield ()
        return
    rows = []

    def extend(i):
        if i == n:
            yield tuple(rows)
            return
        for m in range(1 << n):
            if not (m >> i) & 1:
                continue
            ok = True
            for r in range(i):
                ur = rows[r]
                if (m >> r) & 1 and (ur | m) != m:
                    ok = False
                    break
                if (ur >> i) & 1 and (m | ur) != ur:
                    ok = False
                    break
            if ok:
                rows.append(m)
                yield from extend(i + 1)
                rows.pop()

    yield from extend(0)


def reference_opens(rows):
    """The open scan as it was: every mask against every point's row."""
    return frozenset(
        mask
        for mask in range(1 << len(rows))
        if all(not (mask >> x) & 1 or (rows[x] | mask) == mask for x in range(len(rows)))
    )


def test_preorder_walk_matches_reference():
    """`enumerate_topologies` streams the rows of the row walk it replaced
    (`references.preorder_walk`), in its lexicographic order, and the walk
    is the every-mask walk before it."""
    for n in range(6):
        walk = list(preorder_walk(n))
        assert walk == list(reference_preorder_rows(n)), n
        assert list(map(to_preorder, enumerate_topologies(n))) == walk, n


def test_extension_count_is_the_number_of_pairs_extensions_yields():
    """The bit-parallel count of a base's (A, B) pairs is the number of
    triples `_extensions` yields for it, on every base of at most 5 points,
    and each triple's rows are its base with p added to B's rows and A with
    p as p's row.  Given a bitmap of opens as ``tops``, it yields the same
    triples with those A alone, in the same order."""
    bases = 0
    for n in range(6):
        p = 1 << n
        for up in _preorders(n):
            bases += 1
            triples = list(_extensions(up))
            assert len(triples) == _extension_count(up), up
            for rows, a, b in triples:
                assert rows == tuple(u | p if b >> i & 1 else u for i, u in enumerate(up)) + (a | p,)
            tops = sum(1 << a for a in sorted({a for _, a, _ in triples})[1::2])
            assert list(_extensions(up, tops)) == [t for t in triples if tops >> t[1] & 1], up
    assert bases == sum(A000798[:6])


def test_open_table_matches_reference():
    """Every row tuple of the extensions is a preorder, and its opens are
    the up-closed masks."""
    for n in range(6):
        for rows in _preorders(n):
            assert reference_preorder_fault(rows) is None, rows
            assert _space(rows).opens == reference_opens(rows), rows


def test_range_check_runs_on_every_space():
    with pytest.raises(ParseError, match="^open masks must fit the point set$"):
        FiniteSpace(2, frozenset({0, 3, 4}))
    with pytest.raises(ParseError, match="^open masks must fit the point set$"):
        FiniteSpace(2, frozenset({-1, 0, 3}))


def test_size_limits():
    with pytest.raises(SizeTooLarge):
        list(enumerate_topologies(5, "family"))
    with pytest.raises(SizeTooLarge):
        list(enumerate_topologies(7, "preorder"))
    with pytest.raises(SizeTooLarge, match="^negative point count$"):
        count_topologies(-1)
    with pytest.raises(SizeTooLarge, match="^preorder enumeration handles at most 6 points$"):
        count_topologies(7)
    with pytest.raises(SizeTooLarge):
        search_one_point_connectifications(discrete(5), "T2")


# --------------------------------------------------------------------------
# axioms
# --------------------------------------------------------------------------


def test_axiom_examples():
    d3 = discrete(3)
    assert check_axiom(d3, "T1")
    assert not check_axiom(d3, "connected")
    assert components_exhaustive(d3) == (1, 2, 4)

    assert check_axiom(SIERPINSKI, "T0")
    assert not check_axiom(SIERPINSKI, "T1")
    assert check_axiom(SIERPINSKI, "connected")

    assert check_axiom(indiscrete(3), "connected")
    assert not check_axiom(indiscrete(2), "T0")

    with pytest.raises(ValueError):
        check_axiom(d3, "T9")


def test_search_looks_the_axiom_up_first():
    # A search with no candidate still rejects an unknown axiom name.
    for x in (FiniteSpace(0, frozenset({0})), discrete(2)):
        with pytest.raises(ValueError, match="^unknown axiom 'bogus'; choose from T0, "):
            search_one_point_connectifications(x, "bogus")


def reference_normal_pairs(s):
    """The normal-pairs check as it was: every pair of opens for every pair
    of disjoint closed sets."""
    opens = sorted(s.opens)
    closeds = [s.full ^ o for o in opens]
    return all(
        any((f | u) == u and (g | v) == v and not u & v for u in opens for v in opens)
        for f in closeds
        for g in closeds
        if not f & g
    )


def reference_t0(s):
    for x in range(s.size):
        for y in range(x + 1, s.size):
            if not any(((o >> x) & 1) != ((o >> y) & 1) for o in s.opens):
                return False
    return True


def reference_t1(s):
    for x in range(s.size):
        for y in range(s.size):
            if x == y:
                continue
            if not any((o >> x) & 1 and not (o >> y) & 1 for o in s.opens):
                return False
    return True


def reference_t2(s):
    opens = sorted(s.opens)
    for x in range(s.size):
        for y in range(x + 1, s.size):
            if not any(
                (u >> x) & 1 and (v >> y) & 1 and not u & v for u in opens for v in opens
            ):
                return False
    return True


def connected_subset(s, mask):
    """No relatively clopen proper nonempty trace on the subset."""
    if mask == 0:
        return True
    traces = {o & mask for o in s.opens}
    for t in traces:
        if t != 0 and t != mask and (mask ^ t) in traces:
            return False
    return True


def reference_locally_connected(s):
    """Every open holding a point holds a connected open holding it."""
    for x in range(s.size):
        for u in s.opens:
            if not (u >> x) & 1:
                continue
            if not any(
                (v >> x) & 1 and (v | u) == u and connected_subset(s, v) for v in s.opens
            ):
                return False
    return True


def test_normal_pairs_matches_reference():
    seen = {True: 0, False: 0}
    for n in range(5):
        for t in enumerate_topologies(n, "preorder"):
            got = check_axiom(t, "normal-pairs")
            assert got == reference_normal_pairs(t), topology_literal(t)
            seen[got] += 1
    assert seen[True] and seen[False]


def test_axioms_match_literal_references():
    """Every axiom against a scan of the opens that does not read least
    opens, on every topology of up to 5 points.  Connectedness is checked
    against the scan for a clopen split of the whole space."""
    references = {
        "T0": reference_t0,
        "T1": reference_t1,
        "T2": reference_t2,
        "connected": lambda s: connected_subset(s, s.full),
        "locally_connected": reference_locally_connected,
        "normal-pairs": reference_normal_pairs,
    }
    outcomes = Counter()
    for n in range(6):
        for t in _topologies(n):
            for axiom in AXIOMS:
                got = check_axiom(t, axiom)
                assert got == references[axiom](t), (topology_literal(t), axiom)
                outcomes[axiom, got] += 1
    assert sum(outcomes.values()) == 7332 * len(AXIOMS)
    assert all(outcomes[axiom, False] for axiom in AXIOMS if axiom != "locally_connected")


def test_every_finite_space_locally_connected():
    for n in range(5):
        for t in enumerate_topologies(n, "preorder"):
            assert check_axiom(t, "locally_connected")


def test_t2_equals_discrete_on_finite():
    for n in range(1, 5):
        for t in enumerate_topologies(n, "preorder"):
            assert check_axiom(t, "T2") == (t == discrete(n))


def components_exhaustive(s):
    """Components as maximal connected subsets found by scanning all subsets."""
    if s.size > MAX_FAMILY_POINTS:
        raise SizeTooLarge(f"exhaustive scan handles at most {MAX_FAMILY_POINTS} points")
    connected_masks = [m for m in range(1, s.full + 1) if connected_subset(s, m)]
    comps = set()
    for x in range(s.size):
        comp = 0
        for m in connected_masks:
            if (m >> x) & 1:
                comp |= m
        if comp not in connected_masks:
            raise AssertionError("union of connected sets through a point must be connected")
        comps.add(comp)
    return tuple(sorted(comps))


def components_growth(s):
    """Components via the comparability graph of the specialization preorder."""
    up = to_preorder(s)
    adj = list(up)
    for x in range(s.size):
        for y in range(s.size):
            if (up[y] >> x) & 1:
                adj[x] |= 1 << y
    seen = 0
    comps = []
    for x in range(s.size):
        if (seen >> x) & 1:
            continue
        comp = 0
        stack = [x]
        while stack:
            v = stack.pop()
            if (comp >> v) & 1:
                continue
            comp |= 1 << v
            for w in range(s.size):
                if (adj[v] >> w) & 1 and not (comp >> w) & 1:
                    stack.append(w)
        comps.append(comp)
        seen |= comp
    return tuple(sorted(comps))


def test_components_algorithms_agree():
    """The search's `_components`, where each row joins every component it
    meets, agrees with both references."""
    assert _components((0b001, 0b110, 0b100, 0b1100)) == [0b001, 0b1110]
    for n in range(5):
        for t in enumerate_topologies(n, "preorder"):
            assert components_exhaustive(t) == components_growth(t)
            assert tuple(sorted(_components(to_preorder(t)))) == components_growth(t)


def test_connected_iff_one_component():
    for t in enumerate_topologies(3, "preorder"):
        assert check_axiom(t, "connected") == (len(components_growth(t)) == 1)


# --------------------------------------------------------------------------
# subspace and density
# --------------------------------------------------------------------------


def subspace(s, mask):
    """Trace topology on the masked points, relabeled in order."""
    points = [x for x in range(s.size) if (mask >> x) & 1]
    pos = {x: k for k, x in enumerate(points)}
    opens = set()
    for o in s.opens:
        t = 0
        for x in points:
            if (o >> x) & 1:
                t |= 1 << pos[x]
        opens.add(t)
    return FiniteSpace(len(points), frozenset(opens))


def is_dense(s, mask):
    """Dense iff the only closed superset of the masked points is everything."""
    for o in s.opens:
        closed = s.full ^ o
        if (mask | closed) == closed and closed != s.full:
            return False
    return True


def test_subspace_and_density_examples():
    assert is_dense(SIERPINSKI, 0b01)  # closure of {0} is everything
    assert is_dense(SIERPINSKI, 0b11)
    assert not is_dense(SIERPINSKI, 0b00)
    assert not is_dense(SIERPINSKI, 0b10)  # {1} is closed already

    sub = subspace(discrete(3), 0b101)
    assert sub == discrete(2)
    assert subspace(SIERPINSKI, 0b01) == discrete(1)


# --------------------------------------------------------------------------
# the connectification search
# --------------------------------------------------------------------------


def test_search_examples():
    assert search_one_point_connectifications(discrete(2), "T2") == []
    assert search_one_point_connectifications(discrete(1), "T2") == []
    found = search_one_point_connectifications(SIERPINSKI, "T0")
    assert found
    for t in found:
        assert subspace(t, 0b11) == SIERPINSKI
        assert is_dense(t, 0b11)
        assert check_axiom(t, "connected")
        assert check_axiom(t, "T0")


def test_search_t1_spaces_micro_necessity():
    t1_spaces = 0
    for n in range(1, 4):
        for t in enumerate_topologies(n, "preorder"):
            if check_axiom(t, "T1"):
                t1_spaces += 1
                assert search_one_point_connectifications(t, "T2") == []
    assert t1_spaces == 3  # one discrete space per size


def test_search_positive_control():
    # the 1-point space has a connected T0 extension (Sierpinski itself)
    found = search_one_point_connectifications(discrete(1), "T0")
    assert found


def reference_extensions(x):
    """Every (A, B) candidate of the search as it was built: a preorder with
    the new point above B and below A, its opens from that preorder, and
    density asked of the result.  Yields (rows, A, extension, dense)."""
    up = to_preorder(x)
    p_bit = 1 << x.size
    for a in sorted(x.opens):
        below_a = sum(1 << i for i, u in enumerate(up) if (a | u) == u)
        for o in sorted(x.opens):
            b = x.full ^ o
            if b & ~below_a:
                continue
            rows = tuple(u | p_bit if (b >> i) & 1 else u for i, u in enumerate(up))
            rows += (a | p_bit,)
            assert reference_preorder_fault(rows) is None, rows
            t = _space(rows)
            yield rows, a, t, is_dense(t, x.full)


def test_search_candidates_match_preorder_construction(monkeypatch):
    """With the connectedness and axiom filters switched off (the base
    given no components for A to meet), the search returns exactly the dense
    candidates of the preorder construction, density is A != 0 on every
    candidate, and the axiom is handed each candidate's least opens."""
    handed = []

    def any_axiom(rows):
        handed.append(rows)
        return True

    monkeypatch.setattr(finite, "_components", lambda rows: [])
    monkeypatch.setitem(finite._AXIOM_CHECKS, "any", any_axiom)
    bases = pairs = empty_a = 0
    for n in range(5):
        for x in enumerate_topologies(n, "preorder"):
            bases += 1
            ref = sorted(reference_extensions(x), key=lambda c: c[0])
            for _, a, _, dense in ref:
                assert dense == (a != 0), topology_literal(x)
            pairs += len(ref)
            empty_a += sum(a == 0 for _, a, _, _ in ref)
            want = [t for _, _, t, dense in ref if dense]
            handed.clear()
            assert search_one_point_connectifications(x, "any") == want, topology_literal(x)
            assert sorted(handed) == [to_preorder(t) for t in want], topology_literal(x)
    assert (bases, pairs, empty_a) == (390, 7331, 2483)


def test_connected_is_one_component_as_the_rows_merged():
    """`connected`, one component of `_components`, agrees with the rows
    merged from the first (`references._connected`) on every preorder of 1
    to 5 points and on every (A, B) candidate of the search."""
    connected = _axiom_check("connected")
    preorders = candidates = 0
    for n in range(1, 6):
        for rows in _preorders(n):
            assert connected(rows) == _connected(rows), rows
            preorders += 1
    for x in (t for n in range(5) for t in _topologies(n)):
        for rows, _, _, _ in reference_extensions(x):
            assert connected(rows) == _connected(rows), topology_literal(x)
            candidates += 1
    assert (preorders, candidates) == (7331, 7331)


def test_search_builds_only_the_spaces_it_returns(monkeypatch):
    """Rejected candidates stay rows: every FiniteSpace the search
    constructs is one it returns, each once."""
    built = []
    init = FiniteSpace.__init__

    def counting_init(self, size, opens):
        init(self, size, opens)
        built.append(self)

    bases = [t for n in range(5) for t in _topologies(n)]
    monkeypatch.setattr(FiniteSpace, "__init__", counting_init)
    total = 0
    for x in bases:
        for axiom in AXIOMS:
            built.clear()
            found = search_one_point_connectifications(x, axiom)
            assert list(map(id, built)) == list(map(id, found)), (topology_literal(x), axiom)
            total += len(found)
    assert total == 10889


def test_search_matches_the_search_by_rows():
    """Connectedness read off the base's components and opens read off the
    base's opens give the spaces of building every candidate's rows, merging
    them and building the opens from the rows: equal lists, in one order."""
    total = 0
    for x in (t for n in range(5) for t in _topologies(n)):
        for axiom in AXIOMS:
            found = search_one_point_connectifications(x, axiom)
            assert found == search_by_rows(x, axiom), (topology_literal(x), axiom)
            for t in found:
                assert t.opens == _space(to_preorder(t)).opens
            total += len(found)
    assert total == 10889


def test_the_search_asks_only_the_axioms_left_open(monkeypatch):
    """Over the 390 bases of at most 4 points, the search asks T0 and
    normal-pairs of each of the 3,589 candidates past its component test,
    and never asks the four axioms the construction decides."""
    asked = Counter()

    def counted(axiom, check):
        def wrapper(rows):
            asked[axiom] += 1
            return check(rows)

        return wrapper

    for axiom, check in list(finite._AXIOM_CHECKS.items()):
        monkeypatch.setitem(finite._AXIOM_CHECKS, axiom, counted(axiom, check))
    for x in (t for n in range(5) for t in _topologies(n)):
        for axiom in AXIOMS:
            search_one_point_connectifications(x, axiom)
    assert asked == {"T0": 3589, "normal-pairs": 3589}


def test_t1_and_t2_searches_read_no_rows(monkeypatch):
    """A T1 or T2 search answers [] without reading the base's rows, after
    the size check and the axiom lookup have had their say."""
    read = []
    rows_of = finite.to_preorder
    monkeypatch.setattr(finite, "to_preorder", lambda space: read.append(space) or rows_of(space))
    for x in (t for n in range(5) for t in _topologies(n)):
        assert search_one_point_connectifications(x, "T1") == []
        assert search_one_point_connectifications(x, "T2") == []
    assert read == []
    with pytest.raises(SizeTooLarge):
        search_one_point_connectifications(discrete(5), "bogus")
    with pytest.raises(ValueError, match="^unknown axiom 'bogus'"):
        search_one_point_connectifications(discrete(2), "bogus")


def test_decided_axioms_are_their_rules_on_every_candidate():
    """On each dense, connected (A, B) candidate of the bases of at most
    4 points, rows built as the construction builds them and connectedness
    merged as `references._connected` merges it, every axiom the search
    does not ask answers as the table says."""
    assert set(finite._DECIDED) <= set(AXIOMS)
    candidates = 0
    for x in (t for n in range(5) for t in _topologies(n)):
        for rows, _, _, dense in reference_extensions(x):
            if not (dense and _connected(rows)):
                continue
            candidates += 1
            for axiom, answer in finite._DECIDED.items():
                assert finite._AXIOM_CHECKS[axiom](rows) is answer, (topology_literal(x), rows, axiom)
    assert candidates == 3589


# --------------------------------------------------------------------------
# the search against a scan of every topology on one more point
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _topologies(m):
    return tuple(enumerate_topologies(m, "preorder"))


@lru_cache(maxsize=None)
def _scanned_dense_connected(x):
    """Reference oracle: every (size+1)-point topology whose subspace on the
    first size points is x, in which x is dense and that is connected, in
    enumeration order."""
    prefix = x.full
    return [
        t
        for t in _topologies(x.size + 1)
        if subspace(t, prefix).opens == x.opens
        and is_dense(t, prefix)
        and check_axiom(t, "connected")
    ]


def brute_force_search(x, axiom):
    return [t for t in _scanned_dense_connected(x) if check_axiom(t, axiom)]


FOUR_POINT_STRIDE = 30  # every 30th 4-point base in enumeration order: 12 of 355


def _differential_bases():
    small = [t for n in range(4) for t in enumerate_topologies(n, "preorder")]
    return small + list(enumerate_topologies(4, "preorder"))[::FOUR_POINT_STRIDE]


def test_search_equals_brute_force_scan():
    bases = _differential_bases()
    assert len(bases) == 35 + 12
    nonempty = 0
    for x in bases:
        for axiom in AXIOMS:
            got = search_one_point_connectifications(x, axiom)
            assert got == brute_force_search(x, axiom), (topology_literal(x), axiom)
            nonempty += bool(got)
    assert nonempty > 0


# --------------------------------------------------------------------------
# the textual dump
# --------------------------------------------------------------------------


def reference_literal(s):
    """The literal as it was printed: each open's text built point by point."""

    def fmt(mask):
        return "{" + ",".join(str(x) for x in range(s.size) if (mask >> x) & 1) + "}"

    return ",".join(fmt(m) for m in sorted(s.opens, key=lambda m: (bin(m).count("1"), m)))


def test_topology_literal_round_trip():
    assert topology_literal(SIERPINSKI) == "{},{0},{0,1}"
    assert parse_topology_literal("{},{0},{0,1}") == SIERPINSKI
    for n in range(6):
        for t in _topologies(n):
            text = topology_literal(t)
            assert text == reference_literal(t)
            assert parse_topology_literal(text) == t


def test_parse_topology_literal_rejects_huge_tokens():
    for token in ("6", "7", "10000000000", "0" * 5000 + "6", "9" * 5000):
        with pytest.raises(SizeTooLarge):
            parse_topology_literal(f"{{}},{{0,{token}}}")
    assert parse_topology_literal("{},{" + "0" * 5000 + "}") == discrete(1)
    with pytest.raises(ParseError):  # a malformed group still wins over size
        parse_topology_literal("{},{7},{1,,2}")


def test_parse_topology_literal_rejects_garbage():
    for bad in ["", "{0}", "{},{0},{1}", "nope", "{},{0,1},{0", "{},{a}"]:
        with pytest.raises(ParseError):
            parse_topology_literal(bad)
    assert parse_topology_literal("{},{0}") == discrete(1)


def _read_both(text):
    """The point-table reader's and the token loop's answer to one text: a
    space, or the exception's type name and message."""
    answers = []
    for read in (parse_topology_literal, parse_literal_by_tokens):
        try:
            answers.append(read(text))
        except Exception as exc:
            answers.append((type(exc).__name__, str(exc)))
    return answers


def _variants(text, rng):
    """A canonical literal, its groups shuffled and reversed, every token
    zero-padded, and one token repeated."""
    groups = text[1:-1].split("},{")
    shuffled = rng.sample(groups, len(groups))
    padded = [g and ",".join("0" * rng.randint(1, 3) + t for t in g.split(",")) for g in groups]
    last = groups[-1]
    repeated = groups[:-1] + [f"{last},{last.split(',')[0]}"] if last else groups
    return [text] + ["{" + "},{".join(g) + "}" for g in (shuffled, groups[::-1], padded, repeated)]


HOSTILE_TOKENS = ("", "0", "1", "3", "5", "6", "7", "10", "00", "05", "٣", " 2", "0" * 5000 + "1")
HOSTILE_TEXTS = (
    "{,}", "{0,}", "{7}", "{10}", "{٣}", "{},{" + "0" * 5000 + "}", "{},{7},{1,,2}", "{},{10},{,}",
    "{},{0},{0,1},{1", " { } , { 0 } ", "{},{0}}", "{}{0}", "{},{0},{1}", "{0}", "",
    "{" + "9" * 4400 + "}",
)


def _hostile_texts(rng, count):
    """Texts of one to four groups of up to three tokens from the hostile
    pool, a fifth of them with their braces left open."""
    for _ in range(count):
        groups = [
            ",".join(rng.choice(HOSTILE_TOKENS) for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(1, 4))
        ]
        text = "{},{" + "},{".join(groups)
        yield text + "}" if rng.random() < 0.8 else text


def test_the_point_table_reads_as_the_token_loop():
    """The literal read through the point table gives the token loop's space,
    or its exception and message, on the literal of every base of at most
    4 points and its variants, and on a seeded pool of hostile texts."""
    rng = random.Random(3701)
    for n in range(5):
        for t in _topologies(n):
            for text in _variants(topology_literal(t), rng):
                new, old = _read_both(text)
                assert new == old == t, text
    seen = Counter()
    for text in (*HOSTILE_TEXTS, *_hostile_texts(rng, 3000)):
        new, old = _read_both(text)
        assert new == old, text[:80]
        seen[new[0] if isinstance(new, tuple) else "space"] += 1
    assert min(seen["space"], seen["ParseError"], seen["SizeTooLarge"]) > 100, seen
