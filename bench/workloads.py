"""Seeded inputs for the three benchmark workloads.

Everything here is pure Python (``random.Random``), so a seed produces the
same inputs on every platform and the generator never imports the code under
test.  Seeds change input *values* only: every size that sets the amount of
work (step counts, grid sizes, query mix) is a constant below, so runs with
different seeds do the same work and their timings are comparable.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 1

# bulk_sweep: one pass = mixing-curve, mixing-map and dipoles through the CLI
BULK_STEPS = 1001            # stress points per subcommand (CLI default 201)
BULK_THETA_STEPS = 91        # theta grid of mixing-map (CLI default 61)
BULK_SNAPSHOTS = 3           # angular-density snapshot stresses
BULK_PRESTRESS_GPA = -0.12   # -120 MPa biaxial prestress
BULK_COMMANDS = ("mixing-curve", "mixing-map", "dipoles")

# qw_sweep: one pass = `strainkp qw` on the default wells and 301-point grid
QW_THICKNESSES_NM = (12.0, 4.0)
QW_GRID_POINTS = 301
QW_SWEEP_STEPS = 3           # smallest sweep that still has a mid point
QW_TRANSITION_STEPS = 201    # CLI default; the emulated (bulk) transitions

# point_queries: one pass = a block of library calls in this fixed mix
QUERY_MIX = {"bulk": 46, "dispersion": 3, "qw": 1}
QUERY_BLOCK = sum(QUERY_MIX.values())
DISPERSION_POINTS = 9
QW_QUERY_GRID = 61
QW_QUERY_STATES = 4
LIFETIME_PS = 250.0          # CLI default rate calibration
# work of one block; a dispersion path is one 8x8 solve per point
QUERY_WORK = {"queries": QUERY_BLOCK, "qw_solves": QUERY_MIX["qw"],
              "bulk_points": QUERY_MIX["bulk"]
              + QUERY_MIX["dispersion"] * DISPERSION_POINTS}


def sizes() -> dict:
    """Every constant that sets how much work a pass does."""
    return {
        "bulk_sweep": {"steps": BULK_STEPS, "theta_steps": BULK_THETA_STEPS,
                       "snapshots": BULK_SNAPSHOTS,
                       "commands": list(BULK_COMMANDS)},
        "qw_sweep": {"thicknesses_nm": list(QW_THICKNESSES_NM),
                     "grid_points": QW_GRID_POINTS,
                     "convergence_grid_points": 2 * QW_GRID_POINTS + 1,
                     "sweep_steps": QW_SWEEP_STEPS,
                     "transition_steps": QW_TRANSITION_STEPS},
        "point_queries": {"block": QUERY_BLOCK, "mix": dict(QUERY_MIX),
                          "dispersion_points": DISPERSION_POINTS,
                          "qw_grid_points": QW_QUERY_GRID,
                          "qw_states": QW_QUERY_STATES},
    }


def _window(rng: random.Random) -> tuple[float, float]:
    """A stress window inside +-2 GPa that always straddles zero."""
    return round(rng.uniform(-2.0, -0.5), 3), round(rng.uniform(0.5, 2.0), 3)


def bulk_sweep(seed: int) -> dict:
    """INI config and expectations for one bulk_sweep pass.

    phi is drawn from {0, 180} degrees: both put the theta = pi/2 column of
    mixing-map on the +-x axis, where it must equal the x mixing curve.
    """
    rng = random.Random(seed)
    lo, hi = _window(rng)
    phi_deg = rng.choice((0.0, 180.0))
    snapshots = set()
    while len(snapshots) < BULK_SNAPSHOTS:
        snapshots.add(round(rng.uniform(lo, hi), 3))
    snapshots = sorted(snapshots)
    config = (
        "[prestress]\n"
        f"biaxial_stress_gpa = {BULK_PRESTRESS_GPA!r}\n"
        "[sweep]\n"
        f"stress_min_gpa = {lo!r}\n"
        f"stress_max_gpa = {hi!r}\n"
        f"steps = {BULK_STEPS}\n"
        "[axis]\n"
        f"theta_steps = {BULK_THETA_STEPS}\n"
        f"phi_deg = {phi_deg!r}\n"
        "[dipoles]\n"
        f"snapshot_stresses_gpa = {', '.join(repr(s) for s in snapshots)}\n")
    return {"config": config, "commands": list(BULK_COMMANDS),
            "stress_window_gpa": [lo, hi], "phi_deg": phi_deg,
            "snapshots_gpa": snapshots, "steps": BULK_STEPS,
            "theta_steps": BULK_THETA_STEPS,
            "lifetime_ps": LIFETIME_PS,
            "work": {"queries": 1, "qw_solves": 0,
                     # a 6x6 solve per stress in z/x curves, map, dipoles
                     "bulk_points": 4 * BULK_STEPS + BULK_SNAPSHOTS}}


def qw_sweep(seed: int) -> dict:
    """INI config and expectations for one qw_sweep pass."""
    rng = random.Random(seed)
    lo, hi = _window(rng)
    thicknesses = ", ".join(f"{t:g}" for t in QW_THICKNESSES_NM)
    config = (
        "[sweep]\n"
        f"stress_min_gpa = {lo!r}\n"
        f"stress_max_gpa = {hi!r}\n"
        "[qw]\n"
        f"thicknesses_nm = {thicknesses}\n"
        f"grid_points = {QW_GRID_POINTS}\n"
        f"sweep_steps = {QW_SWEEP_STEPS}\n"
        "[emulation]\n"
        f"transition_steps = {QW_TRANSITION_STEPS}\n")
    return {"config": config, "commands": ["qw"],
            "stress_window_gpa": [lo, hi],
            "thicknesses_nm": list(QW_THICKNESSES_NM),
            "sweep_steps": QW_SWEEP_STEPS,
            "transition_steps": QW_TRANSITION_STEPS,
            "work": {"queries": 1,
                     # per well: convergence solves at N and 2N+1, the sweep
                     "qw_solves": len(QW_THICKNESSES_NM)
                     * (2 + QW_SWEEP_STEPS),
                     "bulk_points": QW_TRANSITION_STEPS}}


def _material(rng: random.Random) -> dict:
    """A table material or an AlGaAs alloy of random composition."""
    if rng.random() < 0.5:
        return {"table": rng.choice(("GaAs", "AlAs"))}
    return {"alloy": round(rng.uniform(0.05, 0.95), 4)}


def _stress(rng: random.Random, normal: float, shear: float) -> list:
    """Full stress tensor (sxx, syy, szz, syz, sxz, sxy) in GPa."""
    return ([round(rng.uniform(-normal, normal), 4) for _ in range(3)]
            + [round(rng.uniform(-shear, shear), 4) for _ in range(3)])


def _axis(rng: random.Random) -> tuple[float, float]:
    return rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)


def _direction(rng: random.Random) -> list:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-3:
            return [c / norm for c in v]


def _query(kind: str, rng: random.Random) -> dict:
    if kind == "bulk":
        theta, phi = _axis(rng)
        return {"kind": "bulk", "material": _material(rng),
                "stress_gpa": _stress(rng, 1.0, 0.5),
                "theta": theta, "phi": phi, "lifetime_ps": LIFETIME_PS}
    if kind == "dispersion":
        return {"kind": "dispersion", "material": _material(rng),
                "stress_gpa": _stress(rng, 1.0, 0.5),
                "direction": _direction(rng),
                "k_max_per_nm": round(rng.uniform(0.1, 0.5), 4),
                "points": DISPERSION_POINTS}
    theta, phi = _axis(rng)
    return {"kind": "qw", "well_nm": round(rng.uniform(3.0, 12.0), 3),
            "barrier_nm": 10.0, "al_fraction": round(rng.uniform(0.2, 0.5), 3),
            "grid_points": QW_QUERY_GRID,
            # sheared: the well is GaAs, stress from the full tensor
            "stress_gpa": _stress(rng, 0.5, 0.3),
            "n_states": QW_QUERY_STATES, "theta": theta, "phi": phi}


def query_block(seed: int, block: int) -> list[dict]:
    """Block ``block`` of point queries: the fixed mix in seeded order."""
    rng = random.Random(seed * 1_000_003 + block)
    kinds = [k for k, n in QUERY_MIX.items() for _ in range(n)]
    rng.shuffle(kinds)
    return [_query(kind, rng) for kind in kinds]


def generate(workload: str, seed: int, blocks: int = 4):
    """The inputs of ``workload`` for ``seed`` (the first ``blocks`` blocks
    for point_queries); used to check that generation is deterministic."""
    if workload == "bulk_sweep":
        return bulk_sweep(seed)
    if workload == "qw_sweep":
        return qw_sweep(seed)
    if workload == "point_queries":
        return [query_block(seed, b) for b in range(blocks)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("bulk_sweep", "qw_sweep", "point_queries")
