"""The byte-identity gate: what onepoint prints for the requests of
``tests/golden.py`` matches the digests in ``tests/golden_outputs.json``.

A failure names each perfbench op whose output changed, with its kind and
arguments, each command line by its index and argv, and each ``--help``
text by its command.  If the change is meant, rewrite the file with
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
    """The selftest run, the searches per axiom, the command lines and the
    `--help` texts."""
    m = golden.modules()
    return golden.selftest_run(m), golden.search_runs(m), *golden.cli_gate(m)


def test_golden_file_is_small(recorded):
    assert golden.GOLDEN.stat().st_size < 100_000
    assert sum(map(len, recorded["ops"].values())) == 2391
    assert sum(k["lines"] for k in recorded["kinds"].values()) == 12368
    assert len(recorded["cli"]) == len(golden.FIXED_REQUESTS) + golden.REQUESTS == 2022
    assert len(recorded["help"]) == 12


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


def test_a_changed_request_names_it(recorded, perfbench_rounds, cli_runs):
    """One byte more on one command line's stdout, or on its stderr, is
    reported with that request's index and argv."""
    selftest, searches, requests, helps = cli_runs
    for i, field in ((0, 2), (5, 3), (400, 2)):
        changed = list(requests)
        result = list(changed[i])
        result[field] += "x"
        changed[i] = tuple(result)
        diffs = golden.differences(recorded, perfbench_rounds, selftest, searches, changed, helps)
        assert diffs == [f"cli request {i} {requests[i][0]!r:.200}: output changed"]


def test_a_changed_help_text_names_its_command(recorded, perfbench_rounds, cli_runs):
    """One space more in the parser's, a command group's or a shape's
    `--help` text is reported with that command."""
    selftest, searches, requests, helps = cli_runs
    assert [h[0] for h in helps[:2]] == [["--help"], ["components", "--help"]]
    assert helps[4][0] == ["witness", "--help"] and helps[5][0] == ["witness", "hausdorff", "--help"]
    for i in (0, 4, 5):
        changed = list(helps)
        argv, code, out, err = changed[i]
        changed[i] = (argv, code, out.replace(" ", "  ", 1), err)
        diffs = golden.differences(recorded, perfbench_rounds, selftest, searches, requests, changed)
        assert diffs == [f"help {golden.help_key(argv)!r}: output changed"]
