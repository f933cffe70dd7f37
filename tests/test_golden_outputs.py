"""The byte-identity gate: what onepoint prints for the requests of
``tests/golden.py`` matches the digests in ``tests/golden_outputs.json``.

A failure names each perfbench op whose output changed, with its kind and
arguments.  If the change is meant, rewrite the file with
``PYTHONPATH=src python tests/golden.py --write`` and list each changed op
kind in CHANGES.md.
"""

import json

import pytest

import golden


@pytest.fixture(scope="module")
def recorded():
    return json.loads(golden.GOLDEN.read_text())


@pytest.fixture(scope="module")
def cli_runs():
    """The selftest run and the searches per axiom."""
    m = golden.modules()
    return golden.selftest_run(m), golden.search_runs(m)


def test_golden_file_is_small(recorded):
    assert golden.GOLDEN.stat().st_size < 40_000
    assert sum(map(len, recorded["ops"].values())) == 2391
    assert sum(k["lines"] for k in recorded["kinds"].values()) == 12368


def test_outputs_match_the_golden_digests(recorded, perfbench_rounds, cli_runs):
    diffs = golden.differences(recorded, perfbench_rounds, *cli_runs)
    assert not diffs, "\n".join(diffs[:20])


def test_a_changed_output_names_its_op(recorded, perfbench_rounds, cli_runs):
    """The gate itself: one byte more on one op's stdout is reported with
    that op's kind and arguments."""
    rounds = {w: list(rs) for w, rs in perfbench_rounds.items()}
    op, rc, lines, err, exc = rounds["large"][5]
    rounds["large"][5] = (op, rc, [*lines[:-1], lines[-1] + " "], err, exc)
    diffs = golden.differences(recorded, rounds, *cli_runs)
    assert diffs[0] == f"large op 5 ({op.kind}) {golden.op_args(op)!r:.200}: output changed"
    assert diffs[1].startswith(f"kinds large/{op.kind}: golden ")
    assert len(diffs) == 2
