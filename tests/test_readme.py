"""The README's Python blocks run in order, each on the names the blocks
before it define, so the documented API cannot drift from the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["result"].components) == 2
