"""The first round of three benchmark workloads, judged by the benchmark's
own checker.

``perfbench/checks.py`` decides every op from references that share no
algorithm with onepoint (``refsets`` for interval sets, ``reffinite`` for
finite topologies), so this is the one place where the finite search and
its axiom checks meet an oracle that does not call ``check_axiom``.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.mark.parametrize("workload", ["corpus", "large", "finite"])
def test_first_round_passes_the_checker(workload):
    m = type("Modules", (), {n: importlib.import_module(f"onepoint.{n}") for n in run.MODULES})
    checker = checks.Checker()
    problems = []
    ops = workloads.WORKLOADS[workload](m, SEED)
    for op in ops:
        _, rc, lines, err, exc = run.execute(m, op)
        if exc is not None:
            # As in a benchmark run: only oversized inputs may raise.
            if op.kind != "oversized":
                problems.append(f"{op.kind} {op.ctx[0][:60]!r}: raised {exc!r}")
            continue
        reason = checker.check(op.kind, op.ctx, rc, lines, err)
        if reason:
            problems.append(reason)
    assert ops and not problems, problems[:5]
