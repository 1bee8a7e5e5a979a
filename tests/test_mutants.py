"""The mutants of ``mutants.py`` stay plantable: a rewrite of the code they
edit, or of the tests named to catch them, fails here until the mutant is
updated.  Running the mutants is ``python tests/mutants.py``, not tier-1."""

import pytest

from mutants import MUTANTS, ROOT

SOURCES = {path: path.read_text(encoding="utf-8") for path in sorted((ROOT / "src").rglob("*.py"))}


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_snippet_occurs_once_in_src(mutant):
    counts = {path.relative_to(ROOT).as_posix(): text.count(mutant.snippet)
              for path, text in SOURCES.items()}
    assert {path: n for path, n in counts.items() if n} == {mutant.path: 1}
    assert mutant.replacement != mutant.snippet


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_named_tests_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        file, _, name = node.partition("::")
        path = ROOT / file
        assert path.is_file(), node
        if name:
            assert f"def {name.split('[')[0]}(" in path.read_text(encoding="utf-8"), node
