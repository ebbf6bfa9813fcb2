"""Shared pytest hooks: every warning a test of this suite raises is an
error, and acceptance pass/fail lines are echoed in the summary."""

import pathlib
import sys

import pytest

_HERE = pathlib.Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    # scoped to tests/: perfbench's own tests keep pytest's default filters
    for item in items:
        if _HERE in item.path.resolve().parents:
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
