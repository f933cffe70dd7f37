"""The first round of three benchmark workloads, judged by the benchmark's
own checker.

``perfbench/checks.py`` decides every op from references that share no
algorithm with onepoint (``refsets`` for interval sets, ``reffinite`` for
finite topologies), so this is the one place where the finite search and
its axiom checks meet an oracle that does not call ``check_axiom``.  The
rounds come from the ``perfbench_rounds`` fixture, which the byte-identity
gate shares.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402


@pytest.mark.parametrize("workload", ["corpus", "large", "finite"])
def test_first_round_passes_the_checker(workload, perfbench_rounds):
    checker = checks.Checker()
    problems = []
    results = perfbench_rounds[workload]
    for op, rc, lines, err, exc in results:
        if exc is not None:
            # As in a benchmark run: only oversized inputs may raise.
            if op.kind != "oversized":
                problems.append(f"{op.kind} {op.ctx[0][:60]!r}: raised {exc!r}")
            continue
        reason = checker.check(op.kind, op.ctx, rc, lines, err)
        if reason:
            problems.append(reason)
    assert results and not problems, problems[:5]
