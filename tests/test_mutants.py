"""The mutant list of tests/mutants.py stays in step with the code; no mutant runs here."""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_replaces_text_that_occurs_once_and_names_tests_that_exist(mutant):
    assert mutant.source().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for node in mutant.tests:
        path, _, name = node.partition("::")
        assert f"\ndef {name.partition('[')[0]}(" in (mutants.ROOT / path).read_text(), node


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
