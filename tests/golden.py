"""Byte-identity gate: digests of everything onepoint prints for a fixed set
of requests.

    PYTHONPATH=src python tests/golden.py            # compare, exit 1 on a change
    PYTHONPATH=src python tests/golden.py --write    # rewrite golden_outputs.json

The requests are:
- every op of the seed-7 round of perfbench's three workloads, built and run
  by perfbench's own ``workloads`` and ``run.execute`` (imported, never
  changed);
- ``--format records selftest``, run in process;
- ``finite search`` on every topology of at most 4 points (390 bases) under
  each of the six axioms;
- a fixed list of command lines over the nine request shapes, valid and
  corrupted, drawn from a seeded ``random`` with the token pools and
  corruptions of ``tests/test_cli_fuzz.py``, run in process at COLUMNS
  columns;
- ``--help`` of the parser and of every subcommand, the same way;
- ``components``, ``connectify`` and ``witness hausdorff <set> p <point>``
  on each set text of TEXTS, which covers what a reader of canonical text
  must decline or read as the general reader does;
- every op of the seed-8 round of the three workloads;
- ``finite enumerate 6``.

An op's digest covers its kind, its arguments, its exit code, its stdout
lines, its stderr and the type of any exception it raised; a command line's
covers its argv, exit code, stdout and stderr.  The file keeps one short
digest per perfbench op, per command line and per ``--help`` text, one
digest per search axiom, per text request and for ``finite enumerate 6``,
and one digest and line count per op kind of each seed's rounds, so
``tests/test_golden_outputs.py`` can name the op or request that changed.
Rewrite the file only in a change that means to alter output, and list
there each op kind that changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_outputs.json"
sys.path.insert(0, str(HERE.parent / "perfbench"))
import run  # noqa: E402
import workloads  # noqa: E402

import test_cli_fuzz as fuzz  # noqa: E402

SEED = 7
SEED8 = 8
WORKLOADS = ("corpus", "large", "finite")
SEARCH_POINTS = 4
DIGEST_HEX = 8
REQUESTS = 2000
COLUMNS = "80"


def modules():
    """The onepoint modules a workload uses, as perfbench passes them."""
    return type("Modules", (), {n: importlib.import_module(f"onepoint.{n}") for n in run.MODULES})


def execute(m, ops) -> list:
    """(op, exit code, stdout lines, stderr, exception) for each op, in order."""
    return [(op, *run.execute(m, op)[1:]) for op in ops]


def perfbench_rounds(m, seed: int = SEED) -> dict:
    return {w: execute(m, workloads.WORKLOADS[w](m, seed)) for w in WORKLOADS}


def selftest_run(m) -> list:
    return execute(m, [workloads.Op("selftest", (), argv=["--format", "records", "selftest"])])


def search_runs(m) -> dict:
    """Per axiom, ``finite search`` on every base of at most SEARCH_POINTS
    points, the bases ordered by their sorted opens."""
    bases = sorted(
        (b for n in range(SEARCH_POINTS + 1) for b in m.finite.enumerate_topologies(n)),
        key=lambda b: (b.size, sorted(b.opens)),
    )
    lits = [m.finite.topology_literal(b) for b in bases]
    return {
        ax: execute(m, [workloads.Op("search", (lit, ax), argv=["finite", "search", lit, ax]) for lit in lits])
        for ax in m.finite.AXIOMS
    }


# The command words of the nine request shapes, in `--help` order.
SHAPE_WORDS = [
    ("components",), ("check",), ("connectify",), ("witness", "hausdorff"),
    ("witness", "normal"), ("compactify",), ("finite", "enumerate"),
    ("finite", "search"), ("selftest",),
]

# Spaces with a compact component, which `connectify` and a witness refuse;
# the fuzz grammar seldom draws one, since its rays swallow bounded pieces.
REFUSED = ["[0,1]", "(0,1) U [2,3]", "[-1,0] U (1,inf)", "(-inf,-1) U [0,0] U (1,2)"]

# Command lines no draw is sure to reach: a refused space whose points or
# closed specs are malformed (the verdict comes first), and `--` before,
# after and in place of the positionals.
FIXED_REQUESTS = [
    ["witness", "hausdorff", "[0,1]", "p", "garbage"],
    ["witness", "normal", "[0,1]", "bad", "]["],
    ["witness", "hausdorff", "(0,1)", "p", "garbage"],
    ["witness", "normal", "(0,1)", "bad", "]["],
    ["witness", "hausdorff", "--", "(0,1) U [2,3]", "q", "1/0"],
    ["witness", "normal", "--", "[-1,0] U (1,inf)", "p+[", "p"],
    ["--", "components", "(0,1)"],
    ["components", "--", "(0,1)", "--"],
    ["components", "(0,1)", "--"],
    ["witness", "--", "hausdorff", "(0,1)", "p", "1"],
    ["witness", "hausdorff", "--", "(0,1)", "p", "--"],
    ["witness", "hausdorff", "(0,1)", "p", "1/2", "--"],
    ["witness", "hausdorff", "--", "(0,1)", "p", "1/2", "--"],
    ["witness", "hausdorff", "--", "--", "p", "1"],
    ["finite", "search", "--", "{},{0}", "--"],
    ["--format", "records", "finite", "search", "--", "{},{0}", "--"],
    ["selftest", "--"],
    ["selftest", "x"],
    ["selftest", "-h"],
    ["--format", "bogus", "selftest"],
    ["frobnicate"],
    [],
]


def _pieces(n: int, last: str | None = None) -> str:
    """n canonical pieces (3i,3i+1/2], the last one written as `last`."""
    pieces = [f"({3 * i},{6 * i + 1}/2]" for i in range(n)]
    if last is not None:
        pieces[-1] = last
    return " U ".join(pieces)


# (set text, a point for the witness from p): non-canonical numerals,
# spacing, separators and piece order, faulty pieces, digit limits, and
# canonical text of every numeral form.  `[1 2,3 0]` reads as [12,30].
TEXTS = [
    ("(0,2/4)", "1/4"), ("[3/1,4)", "7/2"), ("(-0,1)", "1/2"), ("(007,8)", "15/2"),
    ("(0/5,1)", "1/2"), ("[ 1 , 2 ]", "3/2"), ("[1 2,3 0]", "20"), ("[0,1]U[2,3]", "5/2"),
    ("(0,1)  U  (2,3)", "5/2"), ("(0,1) U\t(2,3)", "1/2"), ("(0,1)U (2,3)", "1/2"),
    ("(2,3) U (0,1)", "1/2"), ("(0,1] U (1,2)", "3/2"), ("(0,1) U (1,2)", "3/2"),
    ("[0,1] U [1,2)", "1"), ("(0,2) U (1,3)", "5/2"), ("(0,1) U [1,2]", "1"),
    ("[inf,2)", "1"), ("(-inf,-inf)", "1"), ("(1,0)", "1/2"), ("(1,1]", "1"),
    ("(0,1) U ", "1/2"), (" U (0,1)", "1/2"), ("(0,1) U U (2,3)", "1/2"), ("(0,1/0)", "1/2"),
    ("(0," + "1" * 4301 + ")", "1"), ("(0," + "1" * 4300 + ")", "1"),
    ("(0,1/" + "1" * 4301 + ")", "0"), ("(" + "-" + "1" * 4301 + ",0) U (1,2)", "3/2"),
    ("(0,+1)", "1/2"), ("(0,1.5)", "1"), ("(-1/2,-1/3) U [1/2,inf)", "-2/5"),
    ("(-inf,-7/3] U (0,1) U (1,inf)", "2"), ("(-inf,inf)", "0"), ("[5,5] U (6,7)", "13/2"),
    ("[-1/2,0) U (0,1]", "1/2"), ("(1/2,2/2)", "3/4"), ("(-3/6,0)", "-1/4"),
    ("(0,10/4)", "1"), ("(0,1/1)", "1/2"), ("(00,1)", "1/2"), ("(0,01/2)", "1/4"),
    ("(-inf, inf)", "0"), ("( -inf,0)", "-1"), ("(0,1)U(2,3)U(4,5)", "9/2"),
    ("(0,9" + "9" * 2999 + "/1" + "0" * 3000 + ")", "1/2"), ("empty", "0"), (" empty ", "0"),
    ("", "0"), ("   ", "0"), ("(0,1) U empty", "1/2"), ("((0,1)", "1/2"), ("(0,1))", "1/2"),
    ("(0;1)", "1/2"), ("[0,1] U (2,3)", "5/2"), ("(0,1) u (2,3)", "1/2"), ("(0,1\u0661)", "1/2"),
    (_pieces(128), "1/2"), (_pieces(128, "(381,763/2)"), "1/2"),
    (_pieces(128, "(381,1526/4]"), "1/2"), (_pieces(128, "(381,763/2] U "), "1/2"),
]


def text_requests() -> list[list[str]]:
    """`components`, `connectify` and the witness from p on each of TEXTS."""
    return [
        argv
        for text, point in TEXTS
        for argv in (["components", text], ["connectify", text], ["witness", "hausdorff", text, "p", point])
    ]


ENUMERATE = ["finite", "enumerate", "6"]


def cli_requests(seed: int = SEED, count: int = REQUESTS) -> list[list[str]]:
    """FIXED_REQUESTS, then `count` command lines drawn by a seeded `random`:
    a shape other than a bare `selftest` (which the selftest digest covers),
    its positionals from the fuzz grammar (a space is one with a compact
    component a time in four, a closed spec a closed interval half the
    time), half of them with one token corrupted as the fuzz test corrupts
    it, and a few with an option, a `--` or a token count argparse must
    word."""
    rng = random.Random(seed)

    def interval():
        a, b = sorted((rng.choice(fuzz.NUMBERS), rng.choice(fuzz.NUMBERS)), key=Fraction)
        lo, hi = rng.choice([a, "-inf"]), rng.choice([b, "inf"])
        left = "(" if lo == "-inf" else rng.choice("[(")
        right = ")" if hi == "inf" else rng.choice("])")
        return f"{left}{lo},{hi}{right}"

    def drawn():
        return "empty" if rng.random() < 0.1 else " U ".join(interval() for _ in range(rng.randint(1, 4)))

    def space():
        return rng.choice(REFUSED) if rng.random() < 0.25 else drawn()

    def point():
        return rng.choice([*fuzz.NUMBERS, "p", "p", fuzz.WIDE])

    def closed():
        if rng.random() < 0.5:
            a, b = sorted((rng.choice(fuzz.NUMBERS), rng.choice(fuzz.NUMBERS)), key=Fraction)
            return rng.choice(["", "p+"]) + f"[{a},{b}]"
        return rng.choice([drawn, lambda: "p", lambda: "p+" + drawn()])()

    shapes = [
        *((words, lambda: [space()], list) for words in fuzz.SPACE_VERBS),
        (("witness", "hausdorff"), lambda: [space(), point(), point()], list),
        (("witness", "normal"), lambda: [space(), closed(), closed()], list),
        (("finite", "search"), lambda: [rng.choice(fuzz.LITERALS)], lambda: [rng.choice(fuzz.AXIOMS)]),
        (("finite", "enumerate"), list, lambda: [rng.choice(fuzz.ENUMERATE_SIZES)]),
        (("selftest",), list, lambda: [rng.choice(["--", "x", "-h"])]),
    ]
    out = [list(argv) for argv in FIXED_REQUESTS]
    for _ in range(count):
        words, free, fixed = rng.choice(shapes)
        free, fixed = free(), fixed()
        if free and rng.random() < 0.5:
            k = rng.randrange(len(free))
            kind = rng.choice(fuzz.KINDS)
            places = fuzz.spots(free[k], kind)
            if places:
                filler = rng.choice(fuzz.FILLERS)
                free[k] = fuzz.corrupt(free[k], kind, rng.choice(places), filler)
        fmt = rng.choice([[], [], ["--format", "text"], ["--format", "records"]])
        dashes = rng.choice([[], ["--"], ["--"]]) if free else []
        argv = [*fmt, *words, *dashes, *free, *fixed]
        edit = rng.random() if words != ("selftest",) else 1
        if edit < 0.05:
            argv.append("--")
        elif edit < 0.1:
            argv.pop()
        elif edit < 0.15:
            argv.append(rng.choice(fuzz.NUMBERS))
        out.append(argv)
    return out


def help_requests() -> list[list[str]]:
    """`--help` of the parser and of every subcommand, in `--help` order."""
    words = [()]
    for shape in SHAPE_WORDS:
        for n in range(1, len(shape) + 1):
            if shape[:n] not in words:
                words.append(shape[:n])
    return [[*w, "--help"] for w in words]


def cli_run(m, argv) -> tuple:
    """(argv, exit code, stdout, stderr) of one in-process command line;
    argparse's SystemExit is read as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = m.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return argv, code, out.getvalue(), err.getvalue()


def cli_runs(m, requests) -> list:
    """Each request run at COLUMNS columns, where argparse wraps usage and help."""
    with mock.patch.dict(os.environ, COLUMNS=COLUMNS):
        return [cli_run(m, argv) for argv in requests]


def cli_digest(result) -> str:
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()[:DIGEST_HEX]


def op_args(op) -> list:
    return list(op.argv) if op.argv is not None else list(op.ctx)


def digest(result) -> str:
    op, rc, lines, err, exc = result
    exc_type = None if exc is None else type(exc).__name__
    text = json.dumps([op.kind, op_args(op), rc, list(lines), err, exc_type])
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


def summary(results) -> dict:
    """One digest over a run of results, and the stdout lines they printed."""
    h = hashlib.sha256(" ".join(map(digest, results)).encode())
    return {"digest": h.hexdigest()[:DIGEST_HEX], "lines": sum(len(r[2]) for r in results)}


def by_kind(rounds: dict) -> dict:
    kinds: dict = {}
    for w in WORKLOADS:
        for r in rounds[w]:
            kinds.setdefault(f"{w}/{r[0].kind}", []).append(r)
    return {k: summary(rs) for k, rs in sorted(kinds.items())}


def help_key(argv) -> str:
    return " ".join(["onepoint", *argv])


def build(
    rounds: dict, selftest: list, searches: dict, requests: list, helps: list,
    texts: list, enumerate6: tuple, rounds8: dict,
) -> dict:
    return {
        "seed": SEED,
        "ops": {w: [digest(r) for r in rounds[w]] for w in WORKLOADS},
        "kinds": by_kind(rounds),
        "selftest": summary(selftest),
        "search": {ax: summary(rs) for ax, rs in searches.items()},
        "cli": [cli_digest(r) for r in requests],
        "help": {help_key(r[0]): cli_digest(r) for r in helps},
        "texts": [cli_digest(r) for r in texts],
        "enumerate": {help_key(enumerate6[0]): cli_digest(enumerate6)},
        "kinds8": by_kind(rounds8),
    }


def differences(
    golden: dict, rounds: dict, selftest: list, searches: dict, requests: list, helps: list,
    texts: list, enumerate6: tuple, rounds8: dict,
) -> list[str]:
    """One line per op, kind, axiom, selftest, command line, `--help` text,
    text request or `finite enumerate 6` whose output differs."""
    now = build(rounds, selftest, searches, requests, helps, texts, enumerate6, rounds8)
    out = []
    for w in WORKLOADS:
        want = golden["ops"][w]
        if len(want) != len(rounds[w]):
            out.append(f"{w}: {len(rounds[w])} ops, golden has {len(want)}")
        for i, (r, d) in enumerate(zip(rounds[w], want)):
            if digest(r) != d:
                out.append(f"{w} op {i} ({r[0].kind}) {op_args(r[0])!r:.200}: output changed")
    for section in ("kinds", "kinds8", "search"):
        for key in sorted(golden[section].keys() | now[section].keys()):
            if golden[section].get(key) != now[section].get(key):
                out.append(f"{section} {key}: golden {golden[section].get(key)}, now {now[section].get(key)}")
    if golden["selftest"] != now["selftest"]:
        out.append(f"selftest: golden {golden['selftest']}, now {now['selftest']}")
    for section, runs in (("cli", requests), ("texts", texts)):
        if len(golden[section]) != len(runs):
            out.append(f"{section}: {len(runs)} requests, golden has {len(golden[section])}")
        for i, (r, d) in enumerate(zip(runs, golden[section])):
            if cli_digest(r) != d:
                out.append(f"{section} request {i} {r[0]!r:.200}: output changed")
    for section in ("help", "enumerate"):
        for key in sorted(golden[section].keys() | now[section].keys()):
            if golden[section].get(key) != now[section].get(key):
                out.append(f"{section} {key!r}: output changed")
    return out


def cli_gate(m) -> tuple:
    """The command lines, the `--help` texts, the text requests and
    `finite enumerate 6`, run, and the seed-8 rounds."""
    return (
        cli_runs(m, cli_requests()),
        cli_runs(m, help_requests()),
        cli_runs(m, text_requests()),
        cli_run(m, ENUMERATE),
        perfbench_rounds(m, SEED8),
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    m = modules()
    runs = (perfbench_rounds(m), selftest_run(m), search_runs(m), *cli_gate(m))
    if argv == ["--write"]:
        GOLDEN.write_text(json.dumps(build(*runs), indent=1) + "\n")
        print(f"wrote {GOLDEN.name}")
        return 0
    if argv:
        print("usage: golden.py [--write]", file=sys.stderr)
        return 2
    diffs = differences(json.loads(GOLDEN.read_text()), *runs)
    for line in diffs:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
