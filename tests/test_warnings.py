"""Tier-1's warning filters: a leaked warning fails its test, and nothing else.

``filterwarnings`` in ``pyproject.toml`` turns every warning into an error,
so a RuntimeWarning that ohslab leaks fails the test that leaked it.  When a
``@given`` test fails, hypothesis's report hook imports ``libcst``, which
warns that ``mypy_extensions.TypedDict`` is deprecated; one ``ignore``
entry keeps that warning from stopping the whole session with INTERNALERROR.
The tests run small sessions under the repository's filter list.
"""
import tomllib
from pathlib import Path

import pytest

import ohslab

ROOT = Path(__file__).resolve().parents[1]
FILTERS = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))[
    "tool"]["pytest"]["ini_options"]["filterwarnings"]


@pytest.fixture
def session(pytester, monkeypatch):
    """Run a test module under the repository's warning filters; the outcome."""
    monkeypatch.setenv("PYTHONPATH", str(Path(ohslab.__file__).parents[1]))
    pytester.makepyprojecttoml(
        "[tool.pytest.ini_options]\nfilterwarnings = [%s]\n"
        % ", ".join('"%s"' % entry for entry in FILTERS)
    )

    def run(source):
        pytester.makepyfile(source)
        return pytester.runpytest_subprocess("-p", "no:cacheprovider")

    return run


def test_a_failing_hypothesis_test_leaves_the_session_running(session):
    result = session("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x != 0

        def test_runs_after_it():
            pass
    """)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)


def test_a_runtime_warning_from_ohslab_still_fails(session):
    result = session("""
        from ohslab import build

        def test_leaks_an_overflow():
            build("uniform", 1e300, 4, None).power(2.0)

        def test_runs_after_it():
            pass
    """)
    result.assert_outcomes(failed=1, passed=1)
    assert "RuntimeWarning: overflow encountered in power" in result.stdout.str()
