"""The kept mutant catalogue: small deliberate faults, each with the test
files that must catch it.

    python tests/mutants.py                  # run every entry
    python tests/mutants.py 33-1 32-4        # run the named entries
    python tests/mutants.py --file src/onepoint/finite.py  # the entries anchored there
    python tests/mutants.py --function search_one_point_connectifications  # inside that def
    python tests/mutants.py --json out.json  # also write the results as JSON

An entry names a file, an anchor that occurs exactly once in it, the text
that replaces the anchor, and the test files of which at least one must
fail.  Each run copies ``pyproject.toml``, ``src/``, ``tests/`` and
``perfbench/`` into a fresh temporary directory, applies one entry there
and runs pytest on the entry's test files inside the copy, so the
mutated ``src/`` is the one imported; the working tree is never edited.
An entry is *killed* when pytest reports a failure, *survived* when every
test passes, and an *error* on any other pytest exit.  A survivor is a gap
in the tests, not grounds to drop the entry.  An entry with an
``equivalent`` reason changes no answer, for the reason given: it is
*equivalent*, and accepted, when it survives, and an *error* when it is
killed, since then the reason no longer holds and the entry should become
an ordinary one.  An id ``N-k`` is entry k of
the ``"mutants"`` list in ``BENCH_N.json``, the record of its first run.

Not collected by pytest; ``tests/test_mutant_catalogue.py`` checks the
anchors and the test files.  One entry takes a few seconds.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench")


class Mutant(NamedTuple):
    id: str
    file: str
    anchor: str
    replacement: str
    tests: tuple[str, ...]
    what: str
    equivalent: str = ""  # why no test can tell the mutant apart, if none can


CATALOGUE = (
    Mutant(
        "32-1",
        "src/onepoint/compactify.py",
        "if best_rest and (not rest or _starts_before(best_rest.pieces[0], rest.pieces[0])):",
        "if best_rest and (not rest or not _starts_before(rest.pieces[0], best_rest.pieces[0])):",
        ("tests/test_compactify.py",),
        "finite_subcover advances on a tie (non-strict)",
    ),
    Mutant(
        "32-2",
        "src/onepoint/space.py",
        "tagged.sort(key=lambda t: _BY_START(t[0]))",
        "tagged.sort(key=lambda t: _BY_START(t[0]), reverse=True)",
        ("tests/test_space.py",),
        "separate_disjoint_closed sorts the tagged pieces in reverse",
    ),
    Mutant(
        "32-3",
        "src/onepoint/connectify.py",
        "+ (flt.toward_end(edge, False),) + x.pieces[i + 1 :])",
        "+ (flt.toward_end(edge, False),) + x.pieces[i:])",
        ("tests/test_connectify.py",),
        "the splice of U keeps z's own piece",
    ),
    Mutant(
        "32-4",
        "src/onepoint/compactify.py",
        "k_lo, k_hi = _plus(z, -1, 1), _plus(z, 1, 1)",
        "k_lo, k_hi = _plus(z, 1, 1), _plus(z, 1, 1)",
        ("tests/test_compactify.py",),
        "the compactify box around z starts at z + 1",
    ),
    Mutant(
        "32-5",
        "src/onepoint/connectify.py",
        "if not isinstance(nb, TypeII) or not nb.trace or not _open_as_declared(ext, nb):",
        "if not nb.trace or not _open_as_declared(ext, nb):",
        ("tests/test_connectify.py",),
        "verify_density without its type check",
    ),
    Mutant(
        "33-1",
        "src/onepoint/connectify.py",
        "return (v, u) if swapped else (u, v)",
        "return u, v",
        ("tests/test_connectify.py",),
        "normality_witness with p in G does not swap the pair back",
    ),
    Mutant(
        "33-2",
        "src/onepoint/intervals.py",
        "return reduce(union, sets, EMPTY)",
        "return reduce(union, list(sets)[1:], EMPTY)",
        ("tests/test_compactify.py", "tests/test_connectify.py"),
        "_union_all skips its first set",
    ),
    Mutant(
        "33-3",
        "src/onepoint/connectify.py",
        "if not isinstance(u, (TypeI, TypeII)):",
        "if False:",
        ("tests/test_connectify.py",),
        "_open_as_declared without its type check",
    ),
    Mutant(
        "33-4",
        "src/onepoint/intervals.py",
        "return _plus(lo, 1, 1)",
        "return _plus(lo, 1, 2)",
        ("tests/test_intervals.py", "tests/test_connectify.py"),
        "inner_point moved half a unit in from a single finite lower end",
    ),
    Mutant(
        "33-5",
        "src/onepoint/connectify.py",
        "    if not isinstance(trace, IntervalSet):\n        return False\n",
        "",
        ("tests/test_connectify.py",),
        "verify_fidelity takes any object as a base open (_open_as_declared takes any trace)",
    ),
    Mutant(
        "33-6",
        "src/onepoint/compactify.py",
        "kind_ok = isinstance(w, (TypeI, TypeInf)) and isinstance(w.trace, IntervalSet)",
        "kind_ok = isinstance(w.trace, IntervalSet)",
        ("tests/test_compactify.py",),
        "verify_compact_hausdorff takes an open of any type",
    ),
    Mutant(
        "24-1",
        "src/onepoint/connectify.py",
        "            out.append(piece if _eq(piece.lo, end) else None)\n        k = r\n",
        "            out.append(piece if _eq(piece.lo, end) else None)\n        k = r + 1\n",
        ("tests/test_components.py", "tests/test_certificates.py"),
        "the escape sweep steps one piece past a component's run",
    ),
    Mutant(
        "24-2",
        "src/onepoint/connectify.py",
        "            trace = intersect(trace, x)\n",
        "            trace = trace\n",
        ("tests/test_components.py",),
        "the escape sweep does not cut a trace reaching outside X to X",
    ),
    Mutant(
        "24-3",
        "src/onepoint/sampling.py",
        "return flt.toward_end(near, False) if inside else comp",
        "return flt.toward_end(near, False) if not inside else comp",
        ("tests/test_golden_outputs.py", "tests/test_connectify.py"),
        "the escape hull test inverted",
    ),
    Mutant(
        "24-4",
        "src/onepoint/sampling.py",
        "inside = _lt(near, comp.hi) or (comp.hi_closed and _eq(near, comp.hi))",
        "inside = _lt(comp.lo, near) or (comp.lo_closed and _eq(comp.lo, near))",
        ("tests/test_golden_outputs.py", "tests/test_connectify.py"),
        "the escape hull test reads the lower end on either side",
    ),
    Mutant(
        "24-5",
        "src/onepoint/connectify.py",
        "            out.append(comp)\n            k += 1\n",
        "            out.append(comp)\n",
        ("tests/test_components.py", "tests/test_connectify.py"),
        "the identity shortcut of the escape sweep does not step on",
    ),
    Mutant(
        "24-6",
        "src/onepoint/connectify.py",
        "tails.append(0 if piece is comp else _least_tail(ext.filter_at(i), piece))",
        "tails.append(0 if _eq(piece.hi, comp.hi) else _least_tail(ext.filter_at(i), piece))",
        ("tests/test_connectify.py", "tests/test_certificates.py"),
        "the least-tail shortcut taken on an equal upper end",
    ),
    Mutant(
        "24-7a",
        "src/onepoint/intervals.py",
        '    of p."""\n    if p is h:\n',
        '    of p."""\n    if _eq(p.hi, h.hi):\n',
        ("tests/test_intervals.py", "tests/test_certificates.py"),
        "a piece is open in its host on an equal upper end rather than by identity",
    ),
    Mutant(
        "24-7b",
        "src/onepoint/intervals.py",
        '    p lies in h."""\n    if p is h:\n',
        '    p lies in h."""\n    if _eq(p.hi, h.hi):\n',
        ("tests/test_intervals.py", "tests/test_certificates.py"),
        "a piece is closed in its host on an equal upper end rather than by identity",
    ),
    Mutant(
        "24-8",
        "src/onepoint/cli.py",
        '        if "--" in tokens:\n            return None\n',
        '        if False:\n            return None\n',
        ("tests/test_cli.py",),
        "the request table reads a second '--' as a positional",
    ),
    Mutant(
        "29-1",
        "src/onepoint/connectify.py",
        "u_pieces.extend(pc[ci:i])",
        "u_pieces.extend(_intersect_pieces(c, c) for c in pc[ci:i])",
        ("tests/test_connectify.py",),
        "U takes a copy of a G-free component in place of the piece itself",
    ),
    Mutant(
        "29-3",
        "src/onepoint/connectify.py",
        "tails.append(0 if piece is comp else _least_tail(ext.filter_at(i), piece))",
        "tails.append(_least_tail(ext.filter_at(i), piece))",
        ("tests/test_connectify.py",),
        "least tails without the identity shortcut build every filter",
    ),
    Mutant(
        "29-4",
        "src/onepoint/connectify.py",
        "return EscapeFilter(Component(self.space.ambient.pieces[i], i))",
        "return self.filters[i]",
        ("tests/test_connectify.py",),
        "filter_at builds and keeps every filter",
    ),
    Mutant(
        "29-5",
        "src/onepoint/connectify.py",
        "edge, tail = start, n + 1",
        "edge, tail = start, n",
        ("tests/test_connectify.py",),
        "tail n in place of n + 1 for the block past start(n)",
    ),
    Mutant(
        "29-6",
        "src/onepoint/connectify.py",
        "mirror = _frac(t // d2, (td // d1) * (sd // d2))",
        "mirror = _frac((zn << 1) * sd - sn * zd, zd * sd)",
        ("tests/test_connectify.py",),
        "the mirror 2z - start reduced from the full cross product",
    ),
    Mutant(
        "34-1",
        "src/onepoint/intervals.py",
        "return not ((p.lo_closed and _lt(h.lo, p.lo)) or (p.hi_closed and _lt(p.hi, h.hi)))",
        "return not (p.lo_closed and _lt(h.lo, p.lo))",
        ("tests/test_certificates.py", "tests/test_connectify.py"),
        "the openness sweep skips the closed upper end test",
    ),
    Mutant(
        "34-2",
        "src/onepoint/connectify.py",
        "            piece = pieces[k]\n",
        "            piece = pieces[r - 1]\n",
        ("tests/test_components.py", "tests/test_certificates.py"),
        "a left escape end reads the last piece of the run",
    ),
    Mutant(
        "34-3",
        "src/onepoint/connectify.py",
        "if k < n and pieces[k] is comp:",
        "if k < n and hosts[k] is comp:",
        ("tests/test_certificates.py", "tests/test_connectify.py"),
        "the identity shortcut taken for any piece its component hosts",
    ),
    Mutant(
        "34-4",
        "src/onepoint/sampling.py",
        "k = n.bit_length()",
        "k = (n - 1).bit_length()",
        ("tests/test_sampling.py",),
        "_randint draws as many bits as the width less one has",
    ),
    Mutant(
        "34-5",
        "src/onepoint/connectify.py",
        "return all(isinstance(t, int) and t >= m for t, m in zip(tails, least))",
        "return all(t >= m for t, m in zip(tails, least))",
        ("tests/test_connectify.py",),
        "declared tails are compared without checking they are integers",
    ),
    Mutant(
        "34-6",
        "src/onepoint/connectify.py",
        "    if not (is_open(u) and is_open(v)):\n        return False\n    if not (contains(u, y) and contains(v, z)):",
        "    if not (contains(u, y) and contains(v, z)):\n        return False\n    if not (is_open(u) and is_open(v)):",
        ("tests/test_connectify.py",),
        "verify_separated asks membership before openness",
    ),
    Mutant(
        "34-7",
        "src/onepoint/sampling.py",
        "near = _frac(8 * num - flt.side * j * den, 8 * den)",
        "near = _frac(8 * num + flt.side * j * den, 8 * den)",
        ("tests/test_golden_outputs.py", "tests/test_connectify.py"),
        "the escape hull moves start(n) toward the end, not away from it",
    ),
    Mutant(
        "35-1",
        "src/onepoint/finite.py",
        "if not all(c & a for c in comps):",
        "if not any(c & a for c in comps):",
        ("tests/test_finite.py",),
        "the search keeps an A that meets some component of the base, not every one",
    ),
    Mutant(
        "35-2",
        "src/onepoint/finite.py",
        "[o | p_bit for o in opens if o & a == a]",
        "[o | p_bit for o in opens if o & a]",
        ("tests/test_finite.py",),
        "a found space's opens through p take the opens meeting A, not holding it",
    ),
    Mutant(
        "35-3",
        "src/onepoint/finite.py",
        "[o for o in opens if not o & b]",
        "[o for o in opens if o & b]",
        ("tests/test_finite.py",),
        "a found space's opens without p take the opens meeting B, not missing it",
    ),
    Mutant(
        "35-4",
        "src/onepoint/finite.py",
        "        return len(choices)\n",
        "        return 1\n",
        ("tests/test_finite.py",),
        "the counter counts one row per last-level node",
    ),
    Mutant(
        "35-5",
        "src/onepoint/finite.py",
        "            if c & r:\n",
        "            if c & r and c != comps[0]:\n",
        ("tests/test_finite.py",),
        "_components skips the merge of a row with the first component",
    ),
    Mutant(
        "35-6",
        "src/onepoint/finite.py",
        "    if not validate_topology(n, space.opens):\n",
        "    if False:\n",
        ("tests/test_cli.py", "tests/test_finite.py"),
        "parse_topology_literal takes a family not closed under union or intersection",
    ),
    Mutant(
        "36-1",
        "src/onepoint/connectify.py",
        "if all(map(_open_in_host, trace.pieces, hosts)):",
        "if any(map(_open_in_host, trace.pieces, hosts)):",
        ("tests/test_connectify.py", "tests/test_certificates.py"),
        "the trace check passes a trace with any piece open in its host",
    ),
    Mutant(
        "36-2",
        "src/onepoint/connectify.py",
        "if least is None or type(tails) is not tuple or len(tails) != len(least):",
        "if least is None or len(tails) != len(least):",
        ("tests/test_connectify.py",),
        "declared tails fit as a list, in the algebra and the verifiers alike",
    ),
    Mutant(
        "36-3",
        "src/onepoint/finite.py",
        '"connected": lambda rows: len(_components(rows)) < 2,',
        '"connected": lambda rows: len(_components(rows)) < 3,',
        ("tests/test_finite.py",),
        "a finite space of two components counts as connected",
    ),
    Mutant(
        "36-4",
        "src/onepoint/intervals.py",
        "            if _ends_by(iv, prev):\n",
        "            if _ends_short_of(iv, prev):\n",
        ("tests/test_intervals.py", "tests/test_oracle.py"),
        "_merge_ordered keeps iv's end where the two ends are equal",
        "on equal ends it keeps an included end and otherwise an equal one, so"
        " the merged piece is the same (BENCH_25.json)",
    ),
    Mutant(
        "36-5",
        "src/onepoint/intervals.py",
        "            if ordered and pieces and not _gap_between(pieces[-1], iv):\n"
        "                ordered = False\n",
        "",
        ("tests/test_intervals.py", "tests/test_golden_outputs.py"),
        "the canonical scan takes pieces out of order, touching or overlapping as the set",
    ),
    Mutant(
        "36-6",
        "src/onepoint/intervals.py",
        '_CANON_END = r"(-?inf)|(-?[1-9][0-9]*|0)(?:/([1-9][0-9]*))?"',
        '_CANON_END = r"(-?inf)|(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?"',
        ("tests/test_intervals.py", "tests/test_golden_outputs.py"),
        "the canonical scan reads numerals with leading zeros, keeping their text",
    ),
    Mutant(
        "36-7",
        "src/onepoint/intervals.py",
        "                lo = _frac(int(lo_n), d)\n                if d == 1 or lo._denominator != d:\n",
        "                lo = _frac(int(lo_n), d)\n                if lo._denominator != d:\n",
        ("tests/test_intervals.py", "tests/test_golden_outputs.py"),
        "a lower end over a written denominator of 1 keeps its text",
    ),
    Mutant(
        "37-1",
        "src/onepoint/finite.py",
        "_POINT_OF = {str(x): 1 << x for x in range(MAX_POINTS)}",
        "_POINT_OF = {str(x + 1): 1 << x for x in range(MAX_POINTS)}",
        ("tests/test_finite.py",),
        "the point table names each point one past itself, printing and reading",
    ),
    Mutant(
        "37-2",
        "src/onepoint/finite.py",
        'bit = _POINT_OF.get(tok.lstrip("0") or "0")',
        "bit = _POINT_OF.get(tok)",
        ("tests/test_finite.py",),
        "a zero-padded token reads as a point past the last",
    ),
    Mutant(
        "37-3",
        "src/onepoint/finite.py",
        'for group in flat[1:-1].split("},{"):',
        'for group in flat.split("},{"):',
        ("tests/test_finite.py",),
        "the group split keeps the outer braces in the first and last group",
    ),
    Mutant(
        "37-4",
        "src/onepoint/connectify.py",
        "    chk = is_open_in_extension(ext, s)\n"
        "    if isinstance(s, TypeI) and not s.trace:\n"
        '        return IsTrivial("empty")\n'
        "    if isinstance(s, TypeII) and s.trace == ext.space.ambient:\n"
        '        return IsTrivial("whole")\n',
        "    if isinstance(s, TypeI) and not s.trace:\n"
        '        return IsTrivial("empty")\n'
        "    if isinstance(s, TypeII) and s.trace == ext.space.ambient:\n"
        '        return IsTrivial("whole")\n'
        "    chk = is_open_in_extension(ext, s)\n",
        ("tests/test_connectify.py",),
        "the falsifier's trivial tests come before openness, with no tails check",
    ),
    Mutant(
        "37-5",
        "src/onepoint/intervals.py",
        "        g = math.gcd(n, d)\n",
        "        g = 1\n",
        ("tests/test_intervals.py",),
        "_frac builds n/d without reducing it (BENCH_22.json)",
    ),
    Mutant(
        "37-6",
        "src/onepoint/intervals.py",
        "    try:\n"
        '        return str(n) if d == 1 else f"{n}/{d}"\n'
        "    except ValueError as exc:  # beyond the interpreter's integer-to-text digit limit\n"
        '        raise SizeTooLarge("a computed number has too many digits to print") from exc\n',
        '    return str(n) if d == 1 else f"{n}/{d}"\n',
        ("tests/test_cli.py",),
        "fmt_value lets the digit limit's ValueError through (BENCH_22.json)",
    ),
    Mutant(
        "31-7",
        "src/onepoint/intervals.py",
        "            if oi == n or _starts_before(p, po[oi]):\n",
        "            if oi == n:\n",
        ("tests/test_intervals.py", "tests/test_oracle.py", "tests/test_symmetry.py"),
        "_hosts drops its left-end check",
    ),
    Mutant(
        "37-7",
        "src/onepoint/connectify.py",
        "return flt._index_past(near, closed) if is_finite(near) else 0",
        "return flt._index_past(near, True) if is_finite(near) else 0",
        ("tests/test_connectify.py", "tests/test_components.py"),
        "_least_tail reads every near end as included (the PR-20 re-anchor)",
    ),
    Mutant(
        "38-1",
        "src/onepoint/finite.py",
        '"T2": False}',
        '"T2": True}',
        ("tests/test_finite.py",),
        "the decided table has every candidate Hausdorff",
    ),
    Mutant(
        "38-2",
        "src/onepoint/finite.py",
        '_DECIDED = {"connected": True,',
        '_DECIDED = {"connected": False,',
        ("tests/test_finite.py",),
        "the decided table has no candidate connected",
    ),
    Mutant(
        "38-3",
        "src/onepoint/finite.py",
        "    if decided is False:\n        return []\n",
        "",
        ("tests/test_finite.py",),
        "a T1 or T2 search builds the candidates' rows and asks its check of each",
    ),
    Mutant(
        "38-4",
        "src/onepoint/finite.py",
        "if decided or satisfies(rows):",
        "if satisfies(rows):",
        ("tests/test_finite.py",),
        "a connected or locally connected search asks its check of every candidate",
    ),
)


def apply(entry: Mutant, root: Path) -> None:
    """Replace the entry's anchor in the copy rooted at ``root``."""
    path = root / entry.file
    text = path.read_text()
    if text.count(entry.anchor) != 1:
        raise ValueError(f"{entry.id}: the anchor does not occur exactly once in {entry.file}")
    path.write_text(text.replace(entry.anchor, entry.replacement))


def run(entry: Mutant) -> dict:
    """Run one entry in a temporary copy of the tree: its outcome, pytest's
    summary line and the tests that failed."""
    with tempfile.TemporaryDirectory(prefix="onepoint-mutant-") as tmp:
        copy = Path(tmp)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        for name in COPIED:
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__", "out"))
        apply(entry, copy)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *entry.tests],
            cwd=copy,
            capture_output=True,
            text=True,
        )
    lines = proc.stdout.splitlines()
    result = {
        "id": entry.id,
        "what": entry.what,
        "tests": list(entry.tests),
        "result": outcome(entry, proc.returncode),
        "summary": lines[-1] if lines else proc.stderr.strip()[-200:],
        "failed": [ln.split()[1].split("::")[-1] for ln in lines if ln.startswith("FAILED ")],
    }
    if entry.equivalent:
        result["equivalent"] = entry.equivalent
    return result


def outcome(entry: Mutant, returncode: int) -> str:
    """The entry's result from pytest's exit code (see the module docstring)."""
    result = {0: "survived", 1: "killed"}.get(returncode, "error")
    if entry.equivalent:
        return "equivalent" if result == "survived" else "error"
    return result


def in_function(entry: Mutant, name: str) -> bool:
    """Whether the entry's anchor starts inside a ``def name`` of its file,
    by the line ranges of the file's ``ast``."""
    text = (ROOT / entry.file).read_text()
    line = text.count("\n", 0, text.find(entry.anchor)) + 1
    return any(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == name
        and node.lineno <= line <= node.end_lineno
        for node in ast.walk(ast.parse(text))
    )


def select(argv: list[str]) -> tuple[list[Mutant], str | None]:
    """The entries an argument list asks for, and its ``--json`` path.

    Entry ids name entries, every entry when none is named; ``--file FILE``
    keeps those anchored in FILE, and ``--function NAME`` those anchored
    inside a ``def NAME``.  Raises ValueError on an option without a value,
    an unknown id, or a file or function that no named entry is anchored in.
    """
    opts: dict[str, str | None] = {"--json": None, "--file": None, "--function": None}
    ids = []
    args = iter(argv)
    for arg in args:
        if arg in opts:
            opts[arg] = next(args, None)
            if opts[arg] is None:
                raise ValueError(f"{arg} takes a value")
        else:
            ids.append(arg)
    known = {m.id: m for m in CATALOGUE}
    unknown = [i for i in ids if i not in known]
    if unknown:
        raise ValueError(f"unknown mutant ids: {' '.join(unknown)}")
    entries = [known[i] for i in ids] if ids else list(CATALOGUE)
    if opts["--file"] is not None:
        path = Path(opts["--file"]).resolve()
        entries = [m for m in entries if (ROOT / m.file).resolve() == path]
        if not entries:
            raise ValueError(f"no selected entry is anchored in {opts['--file']}")
    if opts["--function"] is not None:
        entries = [m for m in entries if in_function(m, opts["--function"])]
        if not entries:
            raise ValueError(f"no selected entry is anchored in def {opts['--function']}")
    return entries, opts["--json"]


def main(argv: list[str]) -> int:
    try:
        entries, out = select(argv)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    results = []
    for entry in entries:
        result = run(entry)
        results.append(result)
        print(f"{entry.id} {result['result']}: {result['summary']}", flush=True)
    if out:
        Path(out).write_text(json.dumps(results, indent=1) + "\n")
    return 0 if all(r["result"] in ("killed", "equivalent") for r in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
