"""The run configuration: one INI schema, read, parsed and validated.

Each ``RunConfig`` field is declared once, with its ``[section] key``, its
default and its bounds.  ``RunConfig.load`` rejects unknown sections and
keys, and any key under ``[DEFAULT]``, and ``validate`` rejects values the
commands cannot run, before any solve; both raise ``ConfigError``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import optics, qw
from .materials import (MaterialParams, ParameterLoadError,
                        default_parameter_table, load_parameter_table)

__all__ = ["ConfigError", "RunConfig", "qw_stem", "snapshot_stem"]


class ConfigError(ValueError):
    """Invalid run configuration."""


# Output file stems of the per-value tables.  ``RunConfig.validate`` rejects
# configured values that share a stem, so no table overwrites another.

def qw_stem(thickness_nm: float) -> str:
    return f"qw_mixing_{thickness_nm:g}nm"


def snapshot_stem(stress_gpa: float) -> str:
    return f"angular_density_{stress_gpa:g}gpa"


def _ini(section: str, key: str, default, *, at_least=None, at_most=None):
    """A ``RunConfig`` field set by ``[section] key`` (units are spelled out
    in the keys), parsed as its annotation says; ``validate`` checks the
    bounds."""
    return field(default=default, metadata={"ini": (section, key),
                                            "bounds": (at_least, at_most)})


def _parse(kind: str, where: str, raw: str):
    """The value of config entry ``where`` for a field annotated ``kind``:
    a stripped ``str``, an ``int``, a finite ``float`` or a ``tuple`` of
    comma-separated finite floats."""
    if kind == "str":
        return raw.strip()
    if kind == "int":
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: not an integer: {raw!r}") from exc
    if kind == "tuple":
        raw = raw.strip()
        return tuple(_parse("float", where, item)
                     for item in raw.split(",")) if raw else ()
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where}: must be finite")
    return value


# Upper bounds of the sizes that set the work of a run, from the arrays
# they shape: a bulk stress point holds about 1.8 kB while it is solved
# (6.2 kB in a mixing map of 361 angles), and a well node about 4 kB with
# its solve on the doubled convergence grid.  So the largest run of each
# command keeps its arrays under 1 GB (mixing-map at 100001 x 361 about
# 0.62 GB).  A well sweep point holds a few numbers but costs a well solve
# per thickness, so that sweep stops at 10001 points.  A list stops at 1001
# values: each holds a (sweep point, 8) well table, 0.64 MB at 10001
# points, or a 90 x 180 snapshot density, 0.13 MB, until it is written.


@dataclass
class RunConfig:
    material: str = _ini("run", "material", "GaAs")
    output_format: str = _ini("run", "output_format", "csv")
    parameter_file: str = _ini("run", "parameter_file", "")
    prestress_biaxial_gpa: float = _ini("prestress", "biaxial_stress_gpa",
                                        -0.12)
    stress_min_gpa: float = _ini("sweep", "stress_min_gpa", -2.0)
    stress_max_gpa: float = _ini("sweep", "stress_max_gpa", 2.0)
    steps: int = _ini("sweep", "steps", 201, at_least=2, at_most=100_001)
    theta_steps: int = _ini("axis", "theta_steps", 61, at_least=2,
                            at_most=361)
    phi_deg: float = _ini("axis", "phi_deg", 0.0)
    qw_thicknesses_nm: tuple = _ini("qw", "thicknesses_nm", (12.0, 4.0),
                                    at_least=1, at_most=1001)
    qw_barrier_nm: float = _ini("qw", "barrier_thickness_nm", 20.0)
    qw_barrier_al_fraction: float = _ini("qw", "barrier_al_fraction", 0.4)
    qw_grid_points: int = _ini("qw", "grid_points", 301, at_most=10_001)
    qw_sweep_steps: int = _ini("qw", "sweep_steps", 21, at_least=2,
                               at_most=10_001)
    emulation_cb_mev: float = _ini("emulation", "cb_shift_mev", 52.8)
    emulation_hh_mev: float = _ini("emulation", "hh_shift_mev", 9.1)
    emulation_lh_mev: float = _ini("emulation", "lh_shift_mev", 10.0)
    transition_steps: int = _ini("emulation", "transition_steps", 201,
                                 at_least=2, at_most=100_001)
    lifetime_ps: float = _ini("calibration", "reference_lifetime_ps", 250.0)
    snapshot_stresses_gpa: tuple = _ini("dipoles", "snapshot_stresses_gpa",
                                        (), at_most=1001)

    @classmethod
    def load(cls, path: Path | None) -> "RunConfig":
        declared = {f.metadata["ini"]: f for f in fields(cls)}
        raw = {}
        if path is not None:
            # "key = value   ; note" is the value "value"
            cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
            try:
                text = Path(path).read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") \
                    from exc
            try:
                cp.read_string(text)
            except configparser.Error as exc:
                raise ConfigError(f"cannot parse config {path}: {exc}") \
                    from exc
            # configparser copies [DEFAULT] keys into every section
            if cp.defaults():
                raise ConfigError("[DEFAULT] keys are not supported; set "
                                  "each key in its own section")
            for section in cp.sections():
                if section not in {s for s, _ in declared}:
                    raise ConfigError(f"unknown config section [{section}]")
                for key, value in cp[section].items():
                    if (section, key) not in declared:
                        raise ConfigError(
                            f"unknown config key {key!r} in [{section}]")
                    raw[section, key] = value
        # parsed in declaration order: of two bad values, the one declared
        # first is reported
        return cls(**{f.name: _parse(f.type, "[%s] %s" % where, raw[where])
                      for where, f in declared.items() if where in raw})

    def validate(self) -> None:
        if self.output_format not in ("csv", "json"):
            raise ConfigError(
                f"output_format must be csv or json, got "
                f"{self.output_format!r}")
        if not self.stress_min_gpa < self.stress_max_gpa:
            raise ConfigError("sweep needs stress_min_gpa < stress_max_gpa")
        for f in fields(self):
            section, key = f.metadata["ini"]
            low, high = f.metadata["bounds"]
            value, name = getattr(self, f.name), f"{section} {key}"
            if isinstance(value, tuple):
                value, name = len(value), f"the number of {name} values"
            if low is not None and value < low:
                raise ConfigError(
                    f"{name} must be at least {low}, got {value}")
            if high is not None and value > high:
                raise ConfigError(
                    f"{name} must be at most {high}, got {value}")
        try:
            optics.RateCalibration(self.lifetime_ps)
        except ValueError as exc:
            raise ConfigError(
                f"[calibration] reference_lifetime_ps: {exc}") from exc
        for key, stem_of, values in (
                ("[qw] thicknesses_nm", qw_stem, self.qw_thicknesses_nm),
                ("[dipoles] snapshot_stresses_gpa", snapshot_stem,
                 self.snapshot_stresses_gpa)):
            stems = [stem_of(v) for v in values]
            for stem in stems:
                if stems.count(stem) > 1:
                    raise ConfigError(
                        f"{key}: two values would be written to {stem}."
                        f"{self.output_format} (file names keep 6 "
                        f"significant digits of the configured values)")
        try:
            self.qw_geometries()
        except ValueError as exc:
            # the config key of QwGeometry's well_thickness_nm
            raise ConfigError(f"invalid qw geometry: {exc}".replace(
                "invalid qw geometry: well_thickness_nm",
                "[qw] thicknesses_nm")) from exc
        try:
            self.emulation_offsets()
        except ValueError as exc:
            raise ConfigError(f"[emulation] {exc}") from exc

    def qw_geometries(self) -> tuple[qw.QwGeometry, ...]:
        """One well geometry per configured thickness, in config order."""
        return tuple(qw.QwGeometry(t, self.qw_barrier_nm,
                                   self.qw_barrier_al_fraction,
                                   self.qw_grid_points)
                     for t in self.qw_thicknesses_nm)

    def emulation_offsets(self) -> qw.EmulationOffsets:
        """The configured confinement shifts, in eV."""
        return qw.EmulationOffsets(self.emulation_cb_mev * 1e-3,
                                   self.emulation_hh_mev * 1e-3,
                                   self.emulation_lh_mev * 1e-3)

    def load_table(self) -> dict[str, MaterialParams]:
        try:
            if self.parameter_file:
                table = load_parameter_table(self.parameter_file)
            else:
                table = default_parameter_table()
        except (OSError, ParameterLoadError) as exc:
            raise ConfigError(f"cannot load parameter table: {exc}") from exc
        if self.material not in table:
            raise ConfigError(
                f"material {self.material!r} not in parameter table "
                f"(has {sorted(table)})")
        return table

    def stress_sweep(self, steps: int | None = None) -> np.ndarray:
        return np.linspace(self.stress_min_gpa, self.stress_max_gpa,
                           steps if steps is not None else self.steps)
