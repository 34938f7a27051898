"""The suite's own pytest settings: a failing test must not hide the next one."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_TWO_FAILURES = """
from hypothesis import given, strategies as st


@given(st.just(0))
def test_property_fails(x):
    assert x < 0


def test_plain_fails_after_it():
    assert False
"""


def test_every_failure_is_reported(pytester):
    # filterwarnings = "error" turns every warning into a failure.  When a
    # @given test fails, the hypothesis plugin's report hook touches
    # mypy_extensions.TypedDict, whose DeprecationWarning would then end the
    # session with an INTERNALERROR (exit code 3) before the next test runs.
    # The one narrow ignore entry beside "error" keeps both failures counted.
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    path = pytester.makepyfile(_TWO_FAILURES)
    result = pytester.runpytest(path, "-p", "no:cacheprovider")
    result.assert_outcomes(failed=2)
    assert result.ret == 1
    assert "INTERNALERROR" not in result.stdout.str()
