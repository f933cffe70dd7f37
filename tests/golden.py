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
  each of the six axioms.

An op's digest covers its kind, its arguments, its exit code, its stdout
lines, its stderr and the type of any exception it raised.  The file keeps
one short digest per perfbench op, one digest per search axiom, and one
digest and line count per op kind, so ``tests/test_golden_outputs.py`` can
name the op that changed.  Rewrite the file only in a change that means to
alter output, and list there each op kind that changed and why.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_outputs.json"
sys.path.insert(0, str(HERE.parent / "perfbench"))
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7
WORKLOADS = ("corpus", "large", "finite")
SEARCH_POINTS = 4
DIGEST_HEX = 8


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


def build(rounds: dict, selftest: list, searches: dict) -> dict:
    return {
        "seed": SEED,
        "ops": {w: [digest(r) for r in rounds[w]] for w in WORKLOADS},
        "kinds": by_kind(rounds),
        "selftest": summary(selftest),
        "search": {ax: summary(rs) for ax, rs in searches.items()},
    }


def differences(golden: dict, rounds: dict, selftest: list, searches: dict) -> list[str]:
    """One line per op, kind, axiom or selftest whose output differs."""
    now = build(rounds, selftest, searches)
    out = []
    for w in WORKLOADS:
        want = golden["ops"][w]
        if len(want) != len(rounds[w]):
            out.append(f"{w}: {len(rounds[w])} ops, golden has {len(want)}")
        for i, (r, d) in enumerate(zip(rounds[w], want)):
            if digest(r) != d:
                out.append(f"{w} op {i} ({r[0].kind}) {op_args(r[0])!r:.200}: output changed")
    for section in ("kinds", "search"):
        for key in sorted(golden[section].keys() | now[section].keys()):
            if golden[section].get(key) != now[section].get(key):
                out.append(f"{section} {key}: golden {golden[section].get(key)}, now {now[section].get(key)}")
    if golden["selftest"] != now["selftest"]:
        out.append(f"selftest: golden {golden['selftest']}, now {now['selftest']}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    m = modules()
    rounds, selftest, searches = perfbench_rounds(m), selftest_run(m), search_runs(m)
    if argv == ["--write"]:
        GOLDEN.write_text(json.dumps(build(rounds, selftest, searches), indent=1) + "\n")
        print(f"wrote {GOLDEN.name}")
        return 0
    if argv:
        print("usage: golden.py [--write]", file=sys.stderr)
        return 2
    diffs = differences(json.loads(GOLDEN.read_text()), rounds, selftest, searches)
    for line in diffs:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
