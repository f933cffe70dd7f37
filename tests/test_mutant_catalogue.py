"""The kept mutant catalogue stays applicable: every anchor occurs exactly
once in its file and every named test file exists.  Running the mutants
themselves is `python tests/mutants.py`, outside this suite."""

import pytest

import mutants

ROOT = mutants.ROOT


def test_ids_are_unique():
    ids = [m.id for m in mutants.CATALOGUE]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("entry", mutants.CATALOGUE, ids=lambda m: m.id)
def test_entry_applies_to_the_tree(entry):
    assert entry.file.startswith("src/") and entry.replacement != entry.anchor
    assert (ROOT / entry.file).read_text().count(entry.anchor) == 1
    assert entry.tests and all((ROOT / t).is_file() for t in entry.tests)


def test_apply_refuses_an_absent_anchor(tmp_path):
    entry = mutants.CATALOGUE[0]
    (tmp_path / entry.file).parent.mkdir(parents=True)
    (tmp_path / entry.file).write_text("no anchor here\n")
    with pytest.raises(ValueError, match="exactly once"):
        mutants.apply(entry, tmp_path)
