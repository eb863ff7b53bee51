"""README examples run as written, so the documentation and the code cannot drift."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(after: str) -> str:
    """The first ```python block that follows the line `after` in README."""
    match = re.search(re.escape(after) + r"\n\n```python\n(.*?)```", README.read_text(),
                      re.S)
    assert match, f"no python block after {after!r}"
    return match.group(1)


def test_typical_in_process_run(capsys):
    namespace = {}
    exec(compile(fenced_block("A typical in-process run:"), "README.md", "exec"), namespace)
    residual, tension = (float(word) for word in capsys.readouterr().out.split())
    assert residual == namespace["res"].l2
    assert math.isfinite(tension)
    assert 0.0 < residual <= 1e-10
