"""Every ```python block of README.md runs as written."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_example_runs(index):
    exec(compile(BLOCKS[index], f"README.md, python block {index + 1}", "exec"), {})
