"""The suite's own pytest hooks, run on a throwaway test folder in a fresh
pytest process."""

import pathlib

CONFTEST = pathlib.Path(__file__).with_name("conftest.py")


def test_failing_property_is_reported_and_the_session_goes_on(pytester):
    """A failing hypothesis property prints its falsifying example, and a later
    test still runs. Its report imports libcst, which warns as it loads; that
    warning must not end the session. A warning inside a test stays an error."""
    pytester.makeconftest(CONFTEST.read_text())
    pytester.makepyfile(
        test_property="""
        import warnings
        from hypothesis import given, strategies as st

        @given(st.integers(0, 100))
        def test_fails(n):
            assert n < 50

        def test_warns():
            warnings.warn("from a test", DeprecationWarning)

        def test_later():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=2, passed=1)
    result.stdout.fnmatch_lines(["*Falsifying example: test_fails(*", "*n=50,*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
    result.stdout.fnmatch_lines(["FAILED test_property.py::test_warns - DeprecationWarning: from a test"])
