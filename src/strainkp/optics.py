"""Optical observables of valence doublets.

The conduction Bloch state is orbitally spherical, so the transition
dipole of a hole state along a cubic axis reduces to its X/Y/Z orbital
weight; constant momentum-matrix prefactors are absorbed into a single
rate calibration anchored to the measured lifetime of the unstrained
bright doublet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .axis import _doublet_weights
from .elasticity import StrainState, uniaxial_sweep
from .kp_bulk import (SpinorState, _doublet_stack, _full8,
                      bloch_orbital_matrix, validate_doublet)
from .materials import MaterialParams

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

_U0 = bloch_orbital_matrix()
# rows of the product representation holding X/Y/Z content per spin
_XYZ_UP, _XYZ_DN = [1, 2, 3], [5, 6, 7]
_S_ROWS = (0, 4)
# (X, Y, Z) x (up, dn) product states in the Bloch basis, spin-major
_PRODUCT_XYZ = _U0.conj().T[:, _XYZ_UP + _XYZ_DN]


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
            if v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")

    def as_array(self) -> np.ndarray:
        return np.array([self.s_x, self.s_y, self.s_z])


@dataclass(frozen=True)
class RateCalibration:
    """Lifetime of one unstrained bright dipole (strength 1/2), in ps."""

    reference_lifetime_ps: float = 250.0

    def __post_init__(self):
        if not self.reference_lifetime_ps > 0:
            raise ValueError("reference lifetime must be positive")

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


def angular_density(state: SpinorState, n_theta: int = 90,
                    n_phi: int = 180) -> AngularDensity:
    """Angular probability density of a valence state's Bloch part.

    Uses the p-orbital angular forms X, Y, Z ~ (cos(phi) sin(theta),
    sin(phi) sin(theta), cos(theta)); spin channels add incoherently.
    For a unit-norm state the density integrates to one up to the
    quadrature error of the cell-centered grid (about 1e-3 at the
    default resolution); exported files are normalized downstream.
    The returned theta, phi and weights are read-only arrays shared by
    every call on the same grid.
    """
    v = _U0 @ _full8(state.coefficients[:, None])[:, 0]
    s_weight = sum(abs(v[i]) ** 2 for i in _S_ROWS)
    if s_weight > 1e-9:
        raise ValueError("angular density is defined for VB states only")
    th, ph, orbitals, weights = _sphere_grid(n_theta, n_phi)
    # the orbitals are real, so the real and imaginary parts of both spin
    # amplitudes come from one real (4, 3) @ (3, n_theta n_phi) product
    xyz = v[[_XYZ_UP, _XYZ_DN]]
    amp = np.vstack([xyz.real, xyz.imag]) @ orbitals
    density = np.sum(amp ** 2, axis=0).reshape(weights.shape)
    return AngularDensity(theta=th, phi=ph, density=density, weights=weights)


def _strengths(psi: np.ndarray, frame: np.ndarray | None = None) -> np.ndarray:
    """(s_x, s_y, s_z), last axis, of doublets ``psi`` (..., 8, 2)."""
    basis = _PRODUCT_XYZ
    if frame is not None:
        rot = np.asarray(frame).T
        basis = np.hstack([basis[:, :3] @ rot, basis[:, 3:] @ rot])
    weight = _doublet_weights(basis, psi)
    return weight[..., :3] + weight[..., 3:]


def dipole_strengths(doublet, frame: np.ndarray | None = None, *,
                     degeneracy_atol: float = 1e-6) -> DipoleStrengths:
    """Doublet-averaged orbital weights along three orthogonal axes.

    ``frame`` optionally rotates the dipole axes: a 3x3 orthogonal
    matrix whose rows are the desired axes in cubic coordinates.  The
    weights are invariant under unitary remixing of the doublet and sum
    to one for valence states.
    """
    psi = validate_doublet(*doublet, degeneracy_atol=degeneracy_atol)
    s = _strengths(_full8(psi), frame)
    return DipoleStrengths(s_x=float(s[0]), s_y=float(s[1]), s_z=float(s[2]))


def rates(strengths: DipoleStrengths, calibration: RateCalibration) \
        -> DipoleStrengths:
    """Attach radiative rates: r = s / (s_bright * tau_ref), s_bright = 1/2.

    The unstrained bright dipole (s = 1/2) then maps to 1/tau_ref, e.g.
    4 GHz for tau_ref = 250 ps, and a fully concentrated dipole (s = 1)
    to twice that.
    """
    scale = calibration.ghz_per_strength
    return replace(strengths, r_x=strengths.s_x * scale,
                   r_y=strengths.s_y * scale, r_z=strengths.s_z * scale)


def dipole_sweep(stresses_gpa, prestress: StrainState | None,
                 p: MaterialParams,
                 calibration: RateCalibration | None = None) -> np.ndarray:
    """Dipole strengths and rates of the prestressed-bulk hole ground
    state along a uniaxial stress sweep.

    Rows follow DIPOLE_SWEEP_COLUMNS; rates are zero-filled when no
    calibration is given.
    """
    calibration = calibration or RateCalibration()
    _, total = uniaxial_sweep(stresses_gpa, p, prestress)
    _, psi = _doublet_stack(total, p)
    s = _strengths(psi)
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
