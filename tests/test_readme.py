"""The README's python examples run against the library as it is."""

import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs_and_prints_what_its_comments_say(block):
    """Each block runs, and each `print(...)  # value...` line prints a line
    that starts with the comment's first word, less a trailing `...`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    wanted = [line.partition("#")[2].split()[0].removesuffix("...") if "#" in line else ""
              for line in block.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(wanted), printed
    for got, want in zip(printed, wanted):
        assert got.startswith(want), (got, want)
