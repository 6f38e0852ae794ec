import pathlib

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

PLANTED = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_planted_failure(n):
    assert n < 5


def test_after_the_planted_failure():
    pass
"""


def test_a_failing_hypothesis_test_is_reported_under_the_repo_warning_filters(pytester):
    # tier-1 turns every warning into an error; hypothesis's failure report
    # imports libcst, which warns on import, and without the repo's filter
    # for that warning the run ended in INTERNALERROR at the first failure
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(test_planted=PLANTED)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.stdout.fnmatch_lines(["*Falsifying example*"])
