"""The README's library example, run as written."""

import configparser
import contextlib
import dataclasses
import io
import re
from pathlib import Path

from strainkp import (RateCalibration, biaxial_strain, default_parameter_table,
                      dipole_sweep)
from strainkp.config import RunConfig
from strainkp.optics import DIPOLE_SWEEP_COLUMNS

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


def _quoted(pattern: str, text: str) -> tuple[float, int]:
    """The number the README writes where ``pattern`` has its group, and
    its count of decimals."""
    number = re.search(pattern, text).group(1)
    return float(number), len(number.partition(".")[2])


def test_documented_dipole_numbers_are_the_codes():
    # the compression-endpoint dipole of the criterion 06 paragraph, and
    # the shear deformation potential that would drive s_x to its target
    text = " ".join(README.read_text(encoding="utf-8").split())
    s_x, s_digits = _quoted(r"gives s_x ≈ (\d+\.\d+)", text)
    r_x, r_digits = _quoted(r"r_x ≈ (\d+\.\d+) GHz", text)
    lifetime, _ = _quoted(r"at the (\d+(?:\.\d+)?) ps calibration", text)
    target, _ = _quoted(r"Driving s_x to (\d+\.\d+)", text)
    b, b_digits = _quoted(r"\|b\| ≳ (\d+\.\d+) eV", text)
    s_col, r_col = (DIPOLE_SWEEP_COLUMNS.index(name)
                    for name in ("s_x", "rate_x_ghz"))
    gaas = default_parameter_table()["GaAs"]
    prestress = biaxial_strain(-0.12, gaas)
    (row,) = dipole_sweep([-2.0], prestress, gaas, RateCalibration(lifetime))
    assert round(row[s_col], s_digits) == s_x
    assert round(row[r_col], r_digits) == r_x
    # s_x crosses the target between one step of b's last digit below
    # the quoted |b| and |b| itself (b is negative)
    below, at = (dipole_sweep([-2.0], prestress, dataclasses.replace(
        gaas, b=-size))[0, s_col]
        for size in (round(b - 10.0 ** -b_digits, b_digits), b))
    assert below < target <= at
