"""Command-line front end: the ``strainkp`` subcommands and ``main``.

Each sweep command maps a validated ``config.RunConfig`` to its tables,
which ``tables.write_table`` writes.  Exit codes: 0 success, 2
configuration error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import axis as axis_mod
from . import kp_bulk, optics, qw
from .config import ConfigError, RunConfig, qw_stem, snapshot_stem
from .elasticity import (ActuatorGeometry, StrainState, actuator_strain,
                         biaxial_strain, uniaxial_sweep)
from .materials import MaterialParams, ParameterLoadError
from .states import NumericalError
from .tables import Grid, write_table

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


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
             Grid(th, strain_xx, phh))]


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
        results.append((qw_stem(geometry.well_thickness_nm), _QW_COLUMNS,
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
        results.append((snapshot_stem(sigma),
                        ("theta_rad", "phi_rad", "density"),
                        Grid(d.theta, d.phi, d.density / d.integrate())))
    return results


def cmd_amplify(args) -> int:
    geometry = ActuatorGeometry(args.finger_length_mm, args.gap_um)
    if args.piezo_strain is None:
        print("%.9g" % geometry.amplification)
    else:
        print("%.9g" % actuator_strain(geometry, args.piezo_strain))
    return EXIT_OK


# subcommand -> (handler, help)
_COMMANDS = {
    "mixing-curve": (cmd_mixing_curve,
                     "HH/LH/SO character of the hole ground state vs "
                     "uniaxial stress, for the z and x axes"),
    "mixing-map": (cmd_mixing_map, "p_hh over a (theta, strain) grid"),
    "qw": (cmd_qw, "quantum-well mixing curves and transition energies"),
    "dipoles": (cmd_dipoles, "dipole strengths/rates vs uniaxial stress"),
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
    common.add_argument("--threads", type=_positive_int, default=1,
                        help="worker threads for the qw sweep points")

    parser = argparse.ArgumentParser(
        prog="strainkp",
        description="Strain-driven valence-band mixing, quantum-well hole "
                    "states and optical selection rules for GaAs/AlGaAs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
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
        handler, _ = _COMMANDS[args.command]
        cfg = RunConfig.load(args.config)
        cfg.validate()
        for stem, columns, rows in handler(cfg, args.threads):
            write_table(args.out / f"{stem}.{cfg.output_format}", columns,
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
