"""The README's Example block runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs():
    # a signature change that leaves the Example stale fails here
    example = README.read_text().split("\n## Example\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", example, re.S)
    assert block is not None
    exec(compile(block.group(1), f"{README.name} Example", "exec"), {})
