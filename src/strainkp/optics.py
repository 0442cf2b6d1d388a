"""Optical observables of valence doublets.

The conduction Bloch state is orbitally spherical, so the transition
dipole of a hole state along a direction n reduces to its p-orbital
weight along n, and its Bloch angular density at a point of the sphere
is that weight along the point's direction: one kernel,
``_orbital_weights``, gives both.  The density of a doublet, which
``angular_density`` also takes, is the sum of its states'.  Constant
momentum-matrix prefactors are absorbed into a single rate calibration
anchored to the measured lifetime of the unstrained bright doublet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .elasticity import StrainState, _require_integer, uniaxial_sweep
from .kp_bulk import _doublet_stack
from .materials import MaterialParams
from .states import _BLOCH_ORBITALS, Doublet, SpinorState, _valence

__all__ = [
    "AngularDensity",
    "DIPOLE_SWEEP_COLUMNS",
    "DipoleStrengths",
    "Polarization",
    "RateCalibration",
    "angular_density",
    "dipole_strengths",
    "dipole_sweep",
    "dlp_and_angle",
    "rates",
]

DIPOLE_SWEEP_COLUMNS = ("strain_xx", "s_x", "s_y", "s_z",
                        "rate_x_ghz", "rate_y_ghz", "rate_z_ghz")

# (X, Y, Z) x (up, dn) content of the six VB coefficients, spin-major:
# the X/Y/Z rows, VB columns, of the Bloch-orbital table (no VB state holds S)
_XYZ_CONTENT = _BLOCH_ORBITALS[[1, 2, 3, 5, 6, 7], 2:]


@dataclass(frozen=True)
class DipoleStrengths:
    """Relative transition strengths along the cubic axes, with optional
    calibrated rates in GHz."""

    s_x: float
    s_y: float
    s_z: float
    r_x: float | None = None
    r_y: float | None = None
    r_z: float | None = None

    def __post_init__(self):
        for name, v in (("s_x", self.s_x), ("s_y", self.s_y),
                        ("s_z", self.s_z)):
            # not v < 0, which a NaN passes
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(
                    f"{name} must be finite and nonnegative, got {v}")

    def as_array(self) -> np.ndarray:
        return np.array([self.s_x, self.s_y, self.s_z])


@dataclass(frozen=True)
class RateCalibration:
    """Lifetime of one unstrained bright dipole (strength 1/2), in ps."""

    reference_lifetime_ps: float = 250.0

    def __post_init__(self):
        # tau/2 must neither underflow to 0 nor give 1e3/(tau/2) = inf
        if not (0 < 0.5 * self.reference_lifetime_ps < math.inf
                and math.isfinite(self.ghz_per_strength)):
            raise ValueError("reference lifetime must be positive and "
                             "finite, with a finite rate scale 1e3/(tau/2)")

    @property
    def ghz_per_strength(self) -> float:
        """Rate of a unit dipole strength, 1/(s_bright tau_ref)."""
        return 1e3 / (0.5 * self.reference_lifetime_ps)


class Polarization(NamedTuple):
    """Degree of linear polarization and the in-plane angle of maximal
    intensity; ``tie`` flags the degenerate s_x = s_y case where the 0
    degree angle is pure convention."""

    degree: float
    angle_deg: float
    tie: bool


@dataclass(frozen=True)
class AngularDensity:
    """Bloch probability density sampled on an equiangular sphere grid."""

    theta: np.ndarray      # polar cell centers, shape (n_theta,)
    phi: np.ndarray        # azimuthal cell centers, shape (n_phi,)
    density: np.ndarray    # shape (n_theta, n_phi), normalized
    weights: np.ndarray    # solid-angle weights, shape (n_theta, n_phi)

    def integrate(self) -> float:
        return float(np.sum(self.density * self.weights))


@lru_cache(maxsize=8)
def _sphere_grid(n_theta: int, n_phi: int):
    """(theta, phi, orbitals, weights) of the equiangular cell-centered
    grid, built once per size and read-only because every call shares
    them: the p-orbital angular forms (3, n_theta n_phi) and the
    solid-angle weights (n_theta, n_phi)."""
    th = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    ph = (np.arange(n_phi) + 0.5) * 2.0 * math.pi / n_phi
    tt, pp = np.meshgrid(th, ph, indexing="ij")
    norm = math.sqrt(3.0 / (4.0 * math.pi))
    orbitals = np.stack([norm * np.sin(tt) * np.cos(pp),
                         norm * np.sin(tt) * np.sin(pp),
                         norm * np.cos(tt)]).reshape(3, -1)
    dth = math.pi / n_theta
    dph = 2.0 * math.pi / n_phi
    weights = np.sin(tt) * dth * dph
    for a in (th, ph, orbitals, weights):
        a.flags.writeable = False
    return th, ph, orbitals, weights


def _orbital_weights(psi: np.ndarray,
                     directions: np.ndarray | None = None) -> np.ndarray:
    """Sum over the columns of VB states psi (..., 6, j) and both spins of
    |n . v|^2 per row n of ``directions`` (d, 3), or cubic axis if None:
    shape (..., d), with v a column's (X, Y, Z) content for one spin, its
    real and imaginary parts projected apart.  Each column's four squares
    (up, dn of the real, then of the imaginary part) are summed first,
    then the columns.  For a unit n this is the p-orbital weight along n:
    twice a doublet's dipole strength s_n, or on a sphere grid the density.
    """
    # einsums over all columns: a stack would take a BLAS call per matrix,
    # and a 2-D BLAS product, growing with the sweep or the sphere grid,
    # wakes OpenBLAS's thread pool past its threshold; einsum calls no BLAS
    columns = psi.swapaxes(-1, -2)
    v = np.einsum("ik,lk->il", columns.reshape(-1, 6), _XYZ_CONTENT)
    amp = np.concatenate([v.real, v.imag], 1).reshape(-1, 3)
    if directions is not None:
        amp = np.einsum("ik,dk->id", amp,
                        np.asarray(directions, dtype=float))
    amp *= amp
    amp = amp.reshape(columns.shape[:-1] + (4, amp.shape[-1]))
    return amp.sum(axis=-2).sum(axis=-2)


def angular_density(state, n_theta: int = 90,
                    n_phi: int = 180) -> AngularDensity:
    """Angular probability density of the Bloch part of a valence state,
    or of a doublet (a sequence of states), whose states' densities add.

    Uses the p-orbital angular forms X, Y, Z ~ (cos(phi) sin(theta),
    sin(phi) sin(theta), cos(theta)); spin channels add incoherently.
    A doublet's density does not depend on how its pair was split.  The
    density of m unit-norm states integrates to m up to the quadrature
    error of the cell-centered grid (about 1e-3 per state at the default
    resolution); exported files are normalized by ``integrate()``.  The
    returned theta, phi and weights are read-only arrays shared by every
    call on the same grid.  ``n_theta`` and ``n_phi``, the grid's cell
    counts, must be integers of at least 1.
    """
    for name, n in (("n_theta", n_theta), ("n_phi", n_phi)):
        _require_integer(name, n)
        if n < 1:
            raise ValueError(f"{name} must be at least 1, got {n}")
    states = (state,) if isinstance(state, SpinorState) else tuple(state)
    psi = _valence(np.stack([s.coefficients for s in states], -1))
    th, ph, orbitals, weights = _sphere_grid(n_theta, n_phi)
    density = _orbital_weights(psi, orbitals.T).reshape(weights.shape)
    return AngularDensity(theta=th, phi=ph, density=density, weights=weights)


def dipole_strengths(doublet, frame: np.ndarray | None = None) \
        -> DipoleStrengths:
    """Doublet-averaged orbital weights along three orthogonal axes.

    ``frame`` optionally rotates the dipole axes: a 3x3 orthogonal
    matrix whose rows are the desired axes in cubic coordinates; any
    other matrix (a non-finite entry, or frame frame^T off the identity
    by more than 1e-10) raises ValueError.  The weights are invariant
    under unitary remixing of the doublet and sum to one for valence
    states.  A ``Doublet`` is read as it is; any other pair of states is
    checked by making it one.
    """
    if frame is not None:
        frame = np.asarray(frame, dtype=float)
        # NaN compares false, and inf overflows the product: finite first
        if frame.shape != (3, 3) or not np.isfinite(frame).all() \
                or np.abs(frame @ frame.T - np.eye(3)).max() > 1e-10:
            raise ValueError("frame must be a 3x3 orthogonal matrix whose "
                             "rows are the dipole axes")
    s = 0.5 * _orbital_weights(_valence(Doublet(doublet).coefficients),
                               frame)
    return DipoleStrengths(*s.tolist())


def rates(strengths: DipoleStrengths, calibration: RateCalibration) \
        -> DipoleStrengths:
    """Attach radiative rates: r = s / (s_bright * tau_ref), s_bright = 1/2.

    The unstrained bright dipole (s = 1/2) then maps to 1/tau_ref, e.g.
    4 GHz for tau_ref = 250 ps, and a fully concentrated dipole (s = 1)
    to twice that.
    """
    scale = calibration.ghz_per_strength
    s_x, s_y, s_z = strengths.s_x, strengths.s_y, strengths.s_z
    return DipoleStrengths(s_x, s_y, s_z, s_x * scale, s_y * scale,
                           s_z * scale)


def dipole_sweep(stresses_gpa, prestress: StrainState | None,
                 p: MaterialParams,
                 calibration: RateCalibration | None = None) -> np.ndarray:
    """Dipole strengths and rates of the prestressed-bulk hole ground
    state along a uniaxial stress sweep.

    Rows follow DIPOLE_SWEEP_COLUMNS; without a calibration the rates
    use the default ``RateCalibration()``.
    """
    calibration = calibration or RateCalibration()
    total = uniaxial_sweep(stresses_gpa, p, prestress)
    _, psi = _doublet_stack(total, p)
    s = 0.5 * _orbital_weights(psi)
    return np.hstack([total[:, :1], s, s * calibration.ghz_per_strength])


def dlp_and_angle(strengths: DipoleStrengths,
                  in_plane_only: bool = True) -> Polarization:
    """Degree of linear polarization and orientation of the in-plane
    emission pattern I(phi) = s_x cos^2(phi) + s_y sin^2(phi).

    With ``in_plane_only`` (top collection through a small aperture) the
    z dipole is not collected at all; otherwise it contributes an
    unpolarized pedestal s_z/2 that only dilutes the degree.  Ties
    (s_x = s_y) report 0 degrees by convention and are flagged.
    """
    pedestal = 0.0 if in_plane_only else 0.5 * strengths.s_z
    i_x = strengths.s_x + pedestal
    i_y = strengths.s_y + pedestal
    top = max(i_x, i_y)
    bottom = min(i_x, i_y)
    degree = 0.0 if top + bottom == 0 else (top - bottom) / (top + bottom)
    tie = strengths.s_x == strengths.s_y
    angle = 0.0 if strengths.s_x >= strengths.s_y else 90.0
    return Polarization(degree=float(degree), angle_deg=angle, tie=tie)
