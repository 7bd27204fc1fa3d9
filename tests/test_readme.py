"""The README's ``python`` code blocks run as written, and the names it
lists as exported exist."""

import re
from pathlib import Path

import pytest

import tenblock

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {})


def test_readme_exported_names_exist():
    # every name the README lists as exported directly is one
    text = README.read_text()
    start = text.index("Lower-level pieces are exported directly")
    paragraph = text[start:text.index("\n\n", start)]
    names = re.findall(r"`([^`]+)`", paragraph)
    assert len(names) > 10
    missing = [n for n in names if not hasattr(tenblock, n)]
    assert not missing
