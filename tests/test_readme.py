"""The Python examples of README.md run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    # The blocks run in order in one namespace: later ones use earlier names.
    blocks = python_blocks()
    assert len(blocks) >= 2
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"{README.name} python block {i + 1}", "exec"), namespace)
    assert namespace["x_hat"].shape == namespace["y"].shape
