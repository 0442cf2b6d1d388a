"""Command-line front end: stress sweeps with deterministic CSV/JSON output.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error.  All floats are written with 9 significant digits and LF
line endings, so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import re
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import axis as axis_mod
from . import kp_bulk, optics, qw
from .elasticity import (ActuatorGeometry, StrainState, actuator_strain,
                         biaxial_strain, uniaxial_sweep)
from .kp_bulk import NumericalError
from .materials import (MaterialParams, ParameterLoadError,
                        default_parameter_table, load_parameter_table)

__all__ = ["ConfigError", "RunConfig", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Invalid run configuration."""


# Output file stems of the per-value tables.  ``RunConfig.validate`` rejects
# configured values that share a stem, so no table overwrites another.

def _qw_stem(thickness_nm: float) -> str:
    return f"qw_mixing_{thickness_nm:g}nm"


def _snapshot_stem(stress_gpa: float) -> str:
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
                ("[qw] thicknesses_nm", _qw_stem, self.qw_thicknesses_nm),
                ("[dipoles] snapshot_stresses_gpa", _snapshot_stem,
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


class _Grid(NamedTuple):
    """Rows (first[i], second[j], values[i, j]), first index slowest."""

    first: np.ndarray
    second: np.ndarray
    values: np.ndarray


# Most cells of the table in one piece of the writer.  A piece's text, and
# in JSON a few rewritten copies of it, is the most the writer holds
# whatever the size of the table.
_CHUNK_CELLS = 1 << 14


def _body(rows, ncols: int):
    """CSV body of a table as pieces of whole rows, each formatted by one
    ``%.9g`` ``%`` operation and holding at most ``_CHUNK_CELLS`` cells
    (a grid row of the first axis longer than that is a piece of its own).

    ``rows`` is a ``_Grid`` or equal-length rows of numbers.  A grid's
    axis values are formatted once each and baked into the row template,
    so each ``%`` formats only its values; its pieces hold whole rows of
    the first axis.
    """
    if isinstance(rows, _Grid):
        first, second = (["%.9g" % v for v in
                          np.asarray(axis, dtype=float).tolist()]
                         for axis in (rows.first, rows.second))
        values = np.asarray(rows.values, dtype=float).reshape(
            len(first), len(second))
        # joining ["", tail_0, tail_1, ...] with "a," puts a before each
        # tail: the rows of one first value from one C-level join
        tails = [""] + [b + ",%.9g\n" for b in second]
        step = max(1, _CHUNK_CELLS // (3 * max(1, len(second))))
        for i in range(0, len(first), step):
            template = "".join((a + ",").join(tails)
                               for a in first[i:i + step])
            yield template % tuple(values[i:i + step].ravel().tolist())
    else:
        values = np.asarray(rows, dtype=float).reshape(-1, ncols)
        row = ",".join(["%.9g"] * ncols) + "\n"
        step = max(1, _CHUNK_CELLS // ncols)
        for i in range(0, len(values), step):
            chunk = values[i:i + step]
            yield row * len(chunk) % tuple(chunk.ravel().tolist())


def _write_table(path: Path, columns, rows, output_format: str) -> None:
    """Write ``rows`` as CSV or JSON: equal-length rows of numbers, or a
    ``_Grid`` of three columns.  The file is written piece by piece, so
    the text of the whole table is never held in memory.

    ``"%.9g" % v`` is the text ``format(float(v), ".9g")`` gives, and JSON
    holds those 9-digit values parsed back to floats: the bytes of
    ``json.dumps({"columns": ..., "rows": ...}, separators=(",", ":"),
    sort_keys=True)`` and a newline.  ``_json_rows`` makes that number
    text from the CSV text without parsing it.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as f:
        if output_format == "csv":
            f.write(",".join(columns) + "\n")
            f.writelines(_body(rows, len(columns)))
            return
        header = json.dumps(list(columns), separators=(",", ":"))
        f.write('{"columns":' + header + ',"rows":[')
        sep = ""
        for piece in _body(rows, len(columns)):
            if piece:
                f.write(sep)
                f.write(_json_rows(piece))
                sep = ","
        f.write("]}\n")


# Cells whose %.9g text is not the float repr that json.dumps writes, in
# the rows of a piece as JSON text (each cell follows "[" or "," and precedes
# "," or "]"): integer-looking cells, which repr ends in ".0"; exponents 9
# to 15, which repr writes without one; and exponents of -308 and below,
# where subnormals have fewer digits than 9 ("%.9g" of 5e-324 is
# 4.94065646e-324).  Every other finite cell has at most 9 significant
# digits and a normal exponent, so its repr has the same digits and the
# same notation.  The integer patterns start with a literal, which the
# regex engine scans for quickly; the rare exponents are searched for first.
_INTEGER_CELLS = (re.compile(r",-?\d+(?=[,\]])"),
                  re.compile(r"\[-?\d+(?=[,\]])"))
_EXPONENT = re.compile(r"e(?:\+(?:09|1[0-5])|-3(?:0[89]|[1-9]\d))(?=[,\]])")
_EXPONENT_CELL = re.compile(r"([,\[])([-\d.]+" + _EXPONENT.pattern + ")")


def _json_rows(piece: str) -> str:
    """JSON text of the rows of a CSV body piece, without the outer list
    brackets: the bytes of ``json.dumps`` of the cells parsed as floats,
    made from the text, with a float object only for each rare exponent
    cell."""
    rows = "[" + piece[:-1].replace("\n", "],[") + "]"
    for pattern in _INTEGER_CELLS:
        rows = pattern.sub(r"\g<0>.0", rows)
    if _EXPONENT.search(rows):
        rows = _EXPONENT_CELL.sub(lambda m: m[1] + repr(float(m[2])), rows)
    return rows.replace("nan", "NaN").replace("inf", "Infinity")


def _prestress(cfg: RunConfig, p: MaterialParams):
    return biaxial_strain(cfg.prestress_biaxial_gpa, p)


# the z and x axes of the mixing curves and the well sweeps
_Z_AND_X = (axis_mod.QuantizationAxis(0.0),
            axis_mod.QuantizationAxis(math.pi / 2.0))


# Each subcommand maps the resolved config to the tables it produces,
# [(file stem, columns, rows), ...]; ``main`` writes them.

def cmd_mixing_curve(cfg: RunConfig, threads: int) -> list:
    p = cfg.load_table()[cfg.material]
    z, x = axis_mod.mixing_curve(cfg.stress_sweep(), _prestress(cfg, p),
                                 _Z_AND_X, p)
    return [("mixing_curve_z", axis_mod.MIXING_CURVE_COLUMNS, z),
            ("mixing_curve_x", axis_mod.MIXING_CURVE_COLUMNS, x)]


def cmd_mixing_map(cfg: RunConfig, threads: int) -> list:
    p = cfg.load_table()[cfg.material]
    thetas = axis_mod.default_theta_grid(cfg.theta_steps)
    phi = math.radians(cfg.phi_deg)
    th, strain_xx, phh = axis_mod.mixing_map(
        cfg.stress_sweep(), _prestress(cfg, p), p, thetas=thetas, phi=phi)
    return [("mixing_map", ("theta_rad", "strain_xx", "p_hh"),
             _Grid(th, strain_xx, phh))]


_QW_COLUMNS = ("strain_xx", "p_hh_z", "p_lh_z", "p_so_z",
               "p_hh_x", "p_lh_x", "p_so_x", "converged")


def cmd_qw(cfg: RunConfig, threads: int) -> list:
    table = cfg.load_table()
    if cfg.material != "GaAs":
        raise ConfigError(
            f"[run] material: qw models a GaAs well, got {cfg.material!r}")
    geometries = cfg.qw_geometries()
    stresses = cfg.stress_sweep(cfg.qw_sweep_steps)
    sweeps = qw.qw_mixing_vs_strain(geometries, stresses, _Z_AND_X, table,
                                    threads=threads)
    # a sweep through 0 GPa has solved each unstrained well on its grid
    zero = np.flatnonzero(stresses == 0.0)
    results = []
    for geometry, (rows, energies) in zip(geometries, sweeps):
        doubled = replace(geometry, grid_points=2 * geometry.grid_points + 1)
        e_base = energies[zero[0]] if zero.size else \
            qw.solve_qw(geometry, StrainState(), table, 2)[0].energy
        e_fine = qw.solve_qw(doubled, StrainState(), table, 2)[0].energy
        converged = 1.0 if abs(e_base - e_fine) < 1e-4 else 0.0
        rows = np.hstack([rows, np.full((len(rows), 1), converged)])
        results.append((_qw_stem(geometry.well_thickness_nm), _QW_COLUMNS,
                        rows))

    results.append(("qw_transition_energy", ("strain_xx", "transition_ev"),
                    qw.emulated_transition_energies(
                        cfg.emulation_offsets(),
                        cfg.stress_sweep(cfg.transition_steps), table)))
    return results


def cmd_dipoles(cfg: RunConfig, threads: int) -> list:
    p = cfg.load_table()[cfg.material]
    pre = _prestress(cfg, p)
    calibration = optics.RateCalibration(cfg.lifetime_ps)
    rows = optics.dipole_sweep(cfg.stress_sweep(), pre, p, calibration)
    results = [("dipole_sweep", optics.DIPOLE_SWEEP_COLUMNS, rows)]

    snapshots = uniaxial_sweep(cfg.snapshot_stresses_gpa, p, pre)
    for sigma, voigt in zip(cfg.snapshot_stresses_gpa, snapshots):
        # the hole doublet's density, normalized on its grid for export
        d = optics.angular_density(
            kp_bulk.top_valence_doublet(StrainState(*voigt), p))
        results.append((_snapshot_stem(sigma),
                        ("theta_rad", "phi_rad", "density"),
                        _Grid(d.theta, d.phi, d.density / d.integrate())))
    return results


def cmd_amplify(args) -> int:
    geometry = ActuatorGeometry(args.finger_length_mm, args.gap_um)
    if args.piezo_strain is None:
        print("%.9g" % geometry.amplification)
    else:
        print("%.9g" % actuator_strain(geometry, args.piezo_strain))
    return EXIT_OK


# subcommand -> (handler, RunConfig field that --steps overrides, help)
_COMMANDS = {
    "mixing-curve": (cmd_mixing_curve, "steps",
                     "HH/LH/SO character of the hole ground state vs "
                     "uniaxial stress, for the z and x axes"),
    "mixing-map": (cmd_mixing_map, "steps",
                   "p_hh over a (theta, strain) grid"),
    "qw": (cmd_qw, "qw_sweep_steps",
           "quantum-well mixing curves and transition energies"),
    "dipoles": (cmd_dipoles, "steps",
                "dipole strengths/rates vs uniaxial stress"),
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="run configuration file (INI)")
    common.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default: ./out)")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (overrides [run] output_format)")
    common.add_argument("--threads", type=_positive_int, default=1,
                        help="worker threads for the qw sweep points")
    common.add_argument("--steps", type=int, default=None,
                        help="sweep length (overrides [sweep] steps, or "
                             "[qw] sweep_steps for qw)")

    parser = argparse.ArgumentParser(
        prog="strainkp",
        description="Strain-driven valence-band mixing, quantum-well hole "
                    "states and optical selection rules for GaAs/AlGaAs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    amp = sub.add_parser("amplify", help="geometric strain amplification of "
                                         "the two-finger actuator")
    amp.add_argument("--finger-length-mm", type=float, required=True)
    amp.add_argument("--gap-um", type=float, required=True)
    amp.add_argument("--piezo-strain", type=float, default=None,
                     help="piezo strain to amplify; omit to print the "
                          "bare 2l/d factor")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "amplify":
            return cmd_amplify(args)
        handler, steps_field, _ = _COMMANDS[args.command]
        # flags override config fields before the one validation
        overrides = {"output_format": args.format, steps_field: args.steps}
        cfg = replace(RunConfig.load(args.config),
                      **{k: v for k, v in overrides.items() if v is not None})
        cfg.validate()
        for stem, columns, rows in handler(cfg, args.threads):
            _write_table(args.out / f"{stem}.{cfg.output_format}", columns,
                         rows, cfg.output_format)
        return EXIT_OK
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"strainkp: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ParameterLoadError, ValueError) as exc:
        print(f"strainkp: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"strainkp: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
