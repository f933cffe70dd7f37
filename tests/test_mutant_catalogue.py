"""The kept mutant catalogue stays applicable: every anchor occurs exactly
once in its file, every named test file exists and every equivalence
reason is text.  Running the mutants themselves is `python
tests/mutants.py`, outside this suite."""

import inspect

import pytest

import mutants
from onepoint import finite

ROOT = mutants.ROOT


def test_ids_are_unique():
    ids = [m.id for m in mutants.CATALOGUE]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("entry", mutants.CATALOGUE, ids=lambda m: m.id)
def test_entry_applies_to_the_tree(entry):
    assert entry.file.startswith("src/") and entry.replacement != entry.anchor
    assert (ROOT / entry.file).read_text().count(entry.anchor) == 1
    assert entry.tests and all((ROOT / t).is_file() for t in entry.tests)


def test_equivalence_reasons_are_text():
    for entry in mutants.CATALOGUE:
        assert type(entry.equivalent) is str
    assert all(m.equivalent.strip() for m in mutants.CATALOGUE if m.equivalent)
    assert any(m.equivalent for m in mutants.CATALOGUE)


def test_an_equivalent_entry_must_survive():
    plain = mutants.CATALOGUE[0]
    marked = plain._replace(equivalent="changes no answer")
    assert [mutants.outcome(plain, code) for code in (0, 1, 2)] == ["survived", "killed", "error"]
    assert [mutants.outcome(marked, code) for code in (0, 1, 2)] == ["equivalent", "error", "error"]


def test_apply_refuses_an_absent_anchor(tmp_path):
    entry = mutants.CATALOGUE[0]
    (tmp_path / entry.file).parent.mkdir(parents=True)
    (tmp_path / entry.file).write_text("no anchor here\n")
    with pytest.raises(ValueError, match="exactly once"):
        mutants.apply(entry, tmp_path)


def test_file_selects_exactly_the_entries_anchored_in_it(monkeypatch):
    monkeypatch.chdir(ROOT)
    finite = [m for m in mutants.CATALOGUE if m.file == "src/onepoint/finite.py"]
    assert finite and len(finite) < len(mutants.CATALOGUE)
    assert mutants.select(["--file", "src/onepoint/finite.py"]) == (finite, None)
    absolute = str(ROOT / "src/onepoint/finite.py")
    assert mutants.select(["--json", "o.json", "--file", absolute]) == (finite, "o.json")
    named = mutants.select(["35-4", "33-1", "--file", "src/onepoint/finite.py"])[0]
    assert [m.id for m in named] == ["35-4"]
    assert mutants.select([]) == (list(mutants.CATALOGUE), None)
    for argv in (["--file"], ["--file", "src/onepoint/frozen.py"], ["33-1", "--file", absolute], ["0-0"]):
        with pytest.raises(ValueError):
            mutants.select(argv)


def test_function_selects_exactly_the_entries_anchored_inside_it():
    """`--function NAME` keeps the entries whose anchor starts inside the
    def, here counted by `inspect` rather than by `ast` line ranges."""
    lines, first = inspect.getsourcelines(finite.search_one_point_connectifications)
    text = (ROOT / "src/onepoint/finite.py").read_text()

    def start_line(entry):
        return text.count("\n", 0, text.find(entry.anchor)) + 1

    inside = [
        m
        for m in mutants.CATALOGUE
        if m.file == "src/onepoint/finite.py" and first <= start_line(m) < first + len(lines)
    ]
    assert [m.id for m in inside] == ["35-1", "35-2", "35-3", "38-3", "38-4"]
    assert mutants.select(["--function", "search_one_point_connectifications"]) == (inside, None)
    both = ["--file", "src/onepoint/finite.py", "--function", "search_one_point_connectifications"]
    assert mutants.select(both) == (inside, None)
    assert mutants.select(["35-1", "35-4", "--function", "search_one_point_connectifications"])[0] == inside[:1]
    refused = (["--function"], ["--function", "no_such_def"], ["35-4", "--function", "search_one_point_connectifications"])
    for argv in refused:
        with pytest.raises(ValueError):
            mutants.select(argv)
    assert mutants.main(["--function", "no_such_def"]) == 2
