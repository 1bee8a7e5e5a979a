"""The conftest files: the acceptance-criteria summary printed at the end of a
test run, and the root conftest's import that keeps a failing property test
from stopping the session."""

import importlib.util
import warnings
from pathlib import Path

import pytest

CRITERIA = '''
import pytest

def test_criterion_1_runs():
    pass

def test_criterion_2_runs():
    pass

def test_criterion_3_fails():
    assert False

@pytest.mark.skip(reason="not this time")
def test_criterion_4_skipped():
    pass
'''


def test_summary_marks_criteria_that_did_not_run(pytester):
    pytester.makeconftest((Path(__file__).parent / "conftest.py").read_text())
    pytester.makepyfile(test_criteria_sample=CRITERIA)
    result = pytester.runpytest("-k", "criterion_1 or criterion_3 or criterion_4")
    result.assert_outcomes(passed=1, failed=1, skipped=1, deselected=1)
    result.stdout.fnmatch_lines([
        "*acceptance criteria*",
        "[[]PASS[]] test_criterion_1_runs",
        "[[]NOT RUN[]] test_criterion_2_runs",
        "[[]FAIL[]] test_criterion_3_fails",
        "[[]NOT RUN[]] test_criterion_4_skipped",
    ])


def test_hypothesis_failure_report_imports_nothing_that_warns():
    """hypothesis reports a failing ``@given`` test through this module; under
    ``error::DeprecationWarning`` its first import there would abort pytest."""
    if importlib.util.find_spec("libcst") is None:  # importorskip would import it quietly
        pytest.skip("no libcst: hypothesis writes no failure patch")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        importlib.import_module("hypothesis.extra._patching")
