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
import sys
from dataclasses import dataclass, replace
from pathlib import Path

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


def _parse_str(section: str, key: str, raw: str) -> str:
    return raw.strip()


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") \
            from exc
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be finite")
    return value


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") \
            from exc


def _parse_float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(_parse_float(section, key, item)
                 for item in raw.split(","))


# (section, key) -> (RunConfig field, parser); units are spelled out in the
# key names, defaults are the RunConfig field defaults
_KEYS = {
    ("run", "material"): ("material", _parse_str),
    ("run", "output_format"): ("output_format", _parse_str),
    ("run", "parameter_file"): ("parameter_file", _parse_str),
    ("prestress", "biaxial_stress_gpa"): ("prestress_biaxial_gpa",
                                          _parse_float),
    ("sweep", "stress_min_gpa"): ("stress_min_gpa", _parse_float),
    ("sweep", "stress_max_gpa"): ("stress_max_gpa", _parse_float),
    ("sweep", "steps"): ("steps", _parse_int),
    ("axis", "theta_steps"): ("theta_steps", _parse_int),
    ("axis", "phi_deg"): ("phi_deg", _parse_float),
    ("qw", "thicknesses_nm"): ("qw_thicknesses_nm", _parse_float_list),
    ("qw", "barrier_thickness_nm"): ("qw_barrier_nm", _parse_float),
    ("qw", "barrier_al_fraction"): ("qw_barrier_al_fraction", _parse_float),
    ("qw", "grid_points"): ("qw_grid_points", _parse_int),
    ("qw", "sweep_steps"): ("qw_sweep_steps", _parse_int),
    ("emulation", "cb_shift_mev"): ("emulation_cb_mev", _parse_float),
    ("emulation", "hh_shift_mev"): ("emulation_hh_mev", _parse_float),
    ("emulation", "lh_shift_mev"): ("emulation_lh_mev", _parse_float),
    ("emulation", "transition_steps"): ("transition_steps", _parse_int),
    ("calibration", "reference_lifetime_ps"): ("lifetime_ps", _parse_float),
    ("dipoles", "snapshot_stresses_gpa"): ("snapshot_stresses_gpa",
                                           _parse_float_list),
}
_SECTIONS = {section for section, _ in _KEYS}


@dataclass
class RunConfig:
    material: str = "GaAs"
    output_format: str = "csv"
    parameter_file: str = ""
    prestress_biaxial_gpa: float = -0.12
    stress_min_gpa: float = -2.0
    stress_max_gpa: float = 2.0
    steps: int = 201
    theta_steps: int = 61
    phi_deg: float = 0.0
    qw_thicknesses_nm: tuple = (12.0, 4.0)
    qw_barrier_nm: float = 20.0
    qw_barrier_al_fraction: float = 0.4
    qw_grid_points: int = 301
    qw_sweep_steps: int = 21
    emulation_cb_mev: float = 52.8
    emulation_hh_mev: float = 9.1
    emulation_lh_mev: float = 10.0
    transition_steps: int = 201
    lifetime_ps: float = 250.0
    snapshot_stresses_gpa: tuple = ()

    @classmethod
    def load(cls, path: Path | None) -> "RunConfig":
        raw = {}
        if path is not None:
            cp = configparser.ConfigParser()
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
                if section not in _SECTIONS:
                    raise ConfigError(f"unknown config section [{section}]")
                for key, value in cp[section].items():
                    if (section, key) not in _KEYS:
                        raise ConfigError(
                            f"unknown config key {key!r} in [{section}]")
                    raw[section, key] = value
        return cls(**{field: parse(*where, raw[where])
                      for where, (field, parse) in _KEYS.items()
                      if where in raw})

    def validate(self) -> None:
        if self.output_format not in ("csv", "json"):
            raise ConfigError(
                f"output_format must be csv or json, got "
                f"{self.output_format!r}")
        if not self.stress_min_gpa < self.stress_max_gpa:
            raise ConfigError("sweep needs stress_min_gpa < stress_max_gpa")
        for name, steps in (("sweep steps", self.steps),
                            ("theta_steps", self.theta_steps),
                            ("qw sweep_steps", self.qw_sweep_steps),
                            ("transition_steps", self.transition_steps)):
            if steps < 2:
                raise ConfigError(f"{name} must be at least 2, got {steps}")
        if not self.qw_thicknesses_nm:
            raise ConfigError("qw thicknesses_nm must not be empty")
        if not self.lifetime_ps > 0:
            raise ConfigError("reference_lifetime_ps must be positive")
        try:
            self.qw_geometries()
        except ValueError as exc:
            raise ConfigError(f"invalid qw geometry: {exc}") from exc

    def qw_geometries(self) -> tuple[qw.QwGeometry, ...]:
        """One well geometry per configured thickness, in config order."""
        return tuple(qw.QwGeometry(t, self.qw_barrier_nm,
                                   self.qw_barrier_al_fraction,
                                   self.qw_grid_points)
                     for t in self.qw_thicknesses_nm)

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


def _fmt(value) -> str:
    return format(float(value), ".9g")


def _write_table(path: Path, columns, rows, output_format: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if output_format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        payload = {"columns": list(columns),
                   "rows": [[float(_fmt(v)) for v in row] for row in rows]}
        path.write_text(json.dumps(payload, separators=(",", ":"),
                                   sort_keys=True) + "\n", encoding="utf-8")


def _prestress(cfg: RunConfig, p: MaterialParams):
    return biaxial_strain(cfg.prestress_biaxial_gpa, p)


# Each subcommand maps the resolved config to the tables it produces,
# [(file stem, columns, rows), ...]; ``main`` writes them.

def cmd_mixing_curve(cfg: RunConfig, threads: int) -> list:
    p = cfg.load_table()[cfg.material]
    stresses = cfg.stress_sweep()
    pre = _prestress(cfg, p)
    return [(f"mixing_curve_{name}", axis_mod.MIXING_CURVE_COLUMNS,
             axis_mod.mixing_curve(stresses, pre,
                                   axis_mod.QuantizationAxis(theta), p))
            for name, theta in (("z", 0.0), ("x", math.pi / 2.0))]


def cmd_mixing_map(cfg: RunConfig, threads: int) -> list:
    p = cfg.load_table()[cfg.material]
    thetas = axis_mod.default_theta_grid(cfg.theta_steps)
    phi = math.radians(cfg.phi_deg)
    th, strain_xx, phh = axis_mod.mixing_map(
        cfg.stress_sweep(), _prestress(cfg, p), p, thetas=thetas, phi=phi)
    rows = [(th[i], strain_xx[j], phh[i, j])
            for i in range(len(th)) for j in range(len(strain_xx))]
    return [("mixing_map", ("theta_rad", "strain_xx", "p_hh"), rows)]


_QW_COLUMNS = ("strain_xx", "p_hh_z", "p_lh_z", "p_so_z",
               "p_hh_x", "p_lh_x", "p_so_x", "converged")


def cmd_qw(cfg: RunConfig, threads: int) -> list:
    table = cfg.load_table()
    if cfg.material != "GaAs":
        raise ConfigError(
            f"[run] material: qw models a GaAs well, got {cfg.material!r}")
    geometries = cfg.qw_geometries()
    curves = qw.qw_mixing_vs_strain(
        geometries, cfg.stress_sweep(cfg.qw_sweep_steps),
        (axis_mod.QuantizationAxis(0.0),
         axis_mod.QuantizationAxis(math.pi / 2.0)), table, threads=threads)
    results = []
    for geometry, rows in zip(geometries, curves):
        doubled = replace(geometry, grid_points=2 * geometry.grid_points + 1)
        e_base, e_fine = (qw.solve_qw(g, StrainState(), table, 2)[0].energy
                          for g in (geometry, doubled))
        converged = 1.0 if abs(e_base - e_fine) < 1e-4 else 0.0
        rows = np.hstack([rows, np.full((len(rows), 1), converged)])
        results.append((f"qw_mixing_{geometry.well_thickness_nm:g}nm",
                        _QW_COLUMNS, rows))

    offsets = qw.EmulationOffsets(cfg.emulation_cb_mev * 1e-3,
                                  cfg.emulation_hh_mev * 1e-3,
                                  cfg.emulation_lh_mev * 1e-3)
    _, strains = uniaxial_sweep(cfg.stress_sweep(cfg.transition_steps),
                                table["GaAs"])
    trans = [(e[0], qw.transition_energy(offsets, StrainState(*e), table))
             for e in strains]
    results.append(("qw_transition_energy", ("strain_xx", "transition_ev"),
                    trans))
    return results


def cmd_dipoles(cfg: RunConfig, threads: int) -> list:
    p = cfg.load_table()[cfg.material]
    pre = _prestress(cfg, p)
    calibration = optics.RateCalibration(cfg.lifetime_ps)
    rows = optics.dipole_sweep(cfg.stress_sweep(), pre, p, calibration)
    results = [("dipole_sweep", optics.DIPOLE_SWEEP_COLUMNS, rows)]

    _, snapshots = uniaxial_sweep(cfg.snapshot_stresses_gpa, p, pre)
    for sigma, strain in zip(cfg.snapshot_stresses_gpa, snapshots):
        doublet = kp_bulk.top_valence_doublet(StrainState(*strain), p)
        densities = [optics.angular_density(s) for s in doublet]
        # doublet-averaged density is basis independent; normalize on
        # the grid before export
        avg = 0.5 * (densities[0].density + densities[1].density)
        dens = densities[0]
        avg = avg / np.sum(avg * dens.weights)
        snap = [(dens.theta[i], dens.phi[j], avg[i, j])
                for i in range(dens.theta.size)
                for j in range(dens.phi.size)]
        results.append((f"angular_density_{sigma:g}gpa",
                        ("theta_rad", "phi_rad", "density"), snap))
    return results


def cmd_amplify(args) -> int:
    geometry = ActuatorGeometry(args.finger_length_mm, args.gap_um)
    if args.piezo_strain is None:
        print(_fmt(geometry.amplification))
    else:
        print(_fmt(actuator_strain(geometry, args.piezo_strain)))
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="run configuration file (INI)")
    common.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default: ./out)")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (overrides [run] output_format)")
    common.add_argument("--threads", type=int, default=1,
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
        tables = handler(cfg, max(1, args.threads))
        stems = [stem for stem, _, _ in tables]
        for stem in stems:
            if stems.count(stem) > 1:
                raise ConfigError(
                    f"two outputs would be written to {stem}."
                    f"{cfg.output_format} (file names keep 6 significant "
                    f"digits of the configured values)")
        for stem, columns, rows in tables:
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
