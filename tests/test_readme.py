"""The README's library example, run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    """The first fenced python block after ``heading`` in the README."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    # the single-point chain: strain, doublet, projection, dipoles, rates
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_python_block("## Library example"), str(README),
                     "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("ProjectionResult(p_hh=")
    assert lines[1].startswith("DipoleStrengths(s_x=")
    assert "r_x=None" not in lines[1]
