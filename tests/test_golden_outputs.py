"""The byte-identity gate: what onepoint prints for the requests of
``tests/golden.py`` matches the digests in ``tests/golden_outputs.json``.

A failure names each perfbench op whose output changed, with its kind and
arguments, each command line and text request by its index and argv, each
``--help`` text and ``finite enumerate 6`` by its command, and each op kind
of the seed-8 rounds whose digest or line count changed.  If the change is meant, rewrite the file with
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
    """The selftest run, the searches per axiom, the command lines, the
    `--help` texts, the text requests, `finite enumerate 6` and the seed-8
    rounds."""
    m = golden.modules()
    return golden.selftest_run(m), golden.search_runs(m), *golden.cli_gate(m)


def test_golden_file_is_small(recorded):
    assert golden.GOLDEN.stat().st_size < 100_000
    assert sum(map(len, recorded["ops"].values())) == 2391
    assert sum(k["lines"] for k in recorded["kinds"].values()) == 12368
    assert len(recorded["cli"]) == len(golden.FIXED_REQUESTS) + golden.REQUESTS == 2022
    assert len(recorded["help"]) == 12
    assert len(recorded["texts"]) == 3 * len(golden.TEXTS)
    assert list(recorded["enumerate"]) == ["onepoint finite enumerate 6"]
    assert sum(k["lines"] for k in recorded["kinds8"].values()) == 11929


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
    selftest, searches, requests, helps, *rest = cli_runs
    for i, field in ((0, 2), (5, 3), (400, 2)):
        changed = list(requests)
        result = list(changed[i])
        result[field] += "x"
        changed[i] = tuple(result)
        diffs = golden.differences(recorded, perfbench_rounds, selftest, searches, changed, helps, *rest)
        assert diffs == [f"cli request {i} {requests[i][0]!r:.200}: output changed"]


def test_a_changed_help_text_names_its_command(recorded, perfbench_rounds, cli_runs):
    """One space more in the parser's, a command group's or a shape's
    `--help` text is reported with that command."""
    selftest, searches, requests, helps, *rest = cli_runs
    assert [h[0] for h in helps[:2]] == [["--help"], ["components", "--help"]]
    assert helps[4][0] == ["witness", "--help"] and helps[5][0] == ["witness", "hausdorff", "--help"]
    for i in (0, 4, 5):
        changed = list(helps)
        argv, code, out, err = changed[i]
        changed[i] = (argv, code, out.replace(" ", "  ", 1), err)
        diffs = golden.differences(recorded, perfbench_rounds, selftest, searches, requests, changed, *rest)
        assert diffs == [f"help {golden.help_key(argv)!r}: output changed"]


def test_a_changed_text_request_names_it(recorded, perfbench_rounds, cli_runs):
    """One byte more on a text request's stdout or stderr is reported with
    that request's index and argv."""
    *head, texts, enumerate6, rounds8 = cli_runs
    assert texts[18][0] == ["components", "[1 2,3 0]"]
    for i, field in ((18, 2), (len(texts) - 1, 3)):
        changed = list(texts)
        result = list(changed[i])
        result[field] += "x"
        changed[i] = tuple(result)
        diffs = golden.differences(recorded, perfbench_rounds, *head, changed, enumerate6, rounds8)
        assert diffs == [f"texts request {i} {texts[i][0]!r:.200}: output changed"]


def test_a_changed_enumeration_names_it(recorded, perfbench_rounds, cli_runs):
    *head, texts, (argv, code, out, err), rounds8 = cli_runs
    assert (argv, code, out, err) == (golden.ENUMERATE, 0, "count=209527\n", "")
    changed = (argv, code, out + " ", err)
    diffs = golden.differences(recorded, perfbench_rounds, *head, texts, changed, rounds8)
    assert diffs == ["enumerate 'onepoint finite enumerate 6': output changed"]


def test_a_changed_seed8_op_names_its_kind(recorded, perfbench_rounds, cli_runs):
    """One byte more on one seed-8 op's stdout is reported with the
    workload and kind of that op."""
    *head, rounds8 = cli_runs
    for w, i in (("corpus", 3), ("large", 7)):
        rounds = {k: list(rs) for k, rs in rounds8.items()}
        op, rc, lines, err, exc = rounds[w][i]
        rounds[w][i] = (op, rc, [*lines[:-1], lines[-1] + " "], err, exc)
        diffs = golden.differences(recorded, perfbench_rounds, *head, rounds)
        assert len(diffs) == 1 and diffs[0].startswith(f"kinds8 {w}/{op.kind}: golden ")
