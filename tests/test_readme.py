"""The README's Library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    # the first python block: decide at n, n + 1 and n + 2 and synthesize at
    # n on one pair, asserting each documented outcome
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert blocks, "README.md has no python block"
    exec(compile(blocks[0], str(README), "exec"), {})
