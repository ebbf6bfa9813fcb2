"""Shared pytest hooks: every warning a test of this suite raises, or the
import of its module, is an error, acceptance pass/fail lines are echoed in
the summary, and every hypothesis test runs the same examples on each run and
stores none."""

import pathlib
import sys
import tempfile
import warnings

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("squaresums", derandomize=True, deadline=None, database=None)
settings.load_profile("squaresums")
# with no example database, hypothesis still caches the constants it reads from
# the source and its character tables; keep them out of the checkout
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="squaresums-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

_HERE = pathlib.Path(__file__).resolve().parent


def _ours(node) -> bool:
    # scoped to tests/: perfbench's own tests keep pytest's default filters
    return _HERE in node.path.resolve().parents


@pytest.hookimpl(wrapper=True)
def pytest_make_collect_report(collector):
    # a warning while a test module imports is a collection error
    if not (isinstance(collector, pytest.Module) and _ours(collector)):
        return (yield)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return (yield)


def pytest_collection_modifyitems(items):
    for item in items:
        if _ours(item):
            item.add_marker(pytest.mark.filterwarnings("error"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()
