"""The README's library example, run as written."""

import configparser
import contextlib
import dataclasses
import io
import re
from pathlib import Path

from strainkp.config import RunConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(language: str, heading: str) -> str:
    """The first fenced ``language`` block after ``heading`` in the
    README."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    # the single-point chain: strain, doublet, projection, dipoles, rates
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_block("python", "## Library example"), str(README),
                     "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("ProjectionResult(p_hh=")
    assert lines[1].startswith("DipoleStrengths(s_x=")
    assert "r_x=None" not in lines[1]


def test_documented_config_is_the_default(tmp_path):
    # the README's config, inline ";" notes included, loads as written,
    # names every key of the schema and gives the schema's defaults
    block = _block("ini", "All configuration keys")
    path = tmp_path / "readme.ini"
    path.write_text(block, encoding="utf-8")
    assert RunConfig.load(path) == RunConfig()
    cp = configparser.ConfigParser()
    cp.read_string(block)
    assert {(section, key) for section in cp.sections()
            for key in cp[section]} \
        == {f.metadata["ini"] for f in dataclasses.fields(RunConfig)}
