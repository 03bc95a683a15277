"""The mutation gate in `mutants.py`: its entries match the source, and it can fail.

The gate itself runs every mutant in a child process (about half a minute),
so only one no-op entry runs here.
"""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_old_text_occurs_once_and_each_test_file_exists(mutant):
    text = (mutants.ROOT / "src" / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    for test in mutant.tests:
        assert (mutants.ROOT / test.partition("::")[0]).is_file()


def test_a_no_op_entry_survives():
    noop = mutants.Mutant(
        "no-op", "bzloop/words.py", "LETTERS = (X, Y, Z)", "LETTERS = (X, Y, Z)", ("tests/test_words.py::test_parse_z",)
    )
    assert mutants.run_mutant(noop) == "survived"


def test_an_old_text_that_is_not_unique_is_an_error():
    ambiguous = mutants.Mutant("ambiguous", "bzloop/words.py", "return", "return", ("tests/test_words.py",))
    verdict = mutants.run_mutant(ambiguous)
    assert verdict.startswith("error: ambiguous: old text occurs")
