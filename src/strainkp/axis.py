"""Quantization-axis analysis of valence states.

Provides the total-angular-momentum operators on the HH/LH quadruplet,
the HH/LH/SO basis rotated to an arbitrary axis n(theta, phi), and the
projection of a degenerate valence doublet onto that rotated basis.
The doublet-averaged projection

    p_b = (1/2) sum_{i in doublet} sum_{j in pair b} |<state_i|b_n^j>|^2

is invariant under any unitary remixing of the degenerate pair, which
makes it the only basis-independent notion of HH/LH/SO character.
Written with the projector P_b = sum_{j in pair b} b_n^j b_n^j^dagger
and the doublet density matrix rho = sum_i state_i state_i^dagger, it is

    p_b = (1/2) tr(P_b rho),

which ``mixing_map`` evaluates for a whole (theta, strain) grid as one
real matrix product of the flattened P_hh(theta) and rho(strain).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elasticity import StrainState, uniaxial_sweep
from .kp_bulk import (_BLOCH_ORBITALS, HH_INDICES, LH_INDICES, SO_INDICES,
                      SpinorState, _doublet_stack, _full8, validate_doublet)
from .materials import MaterialParams

__all__ = [
    "MIXING_CURVE_COLUMNS",
    "ProjectionResult",
    "QuantizationAxis",
    "commutator_norm",
    "default_theta_grid",
    "j_operator",
    "mixing_curve",
    "mixing_map",
    "project_hgs",
    "rotated_basis",
]

MIXING_CURVE_COLUMNS = ("strain_xx", "p_hh", "p_lh", "p_so")


@dataclass(frozen=True)
class QuantizationAxis:
    """Projection axis given by polar angle theta (from z) and azimuth
    phi (from x); n = (cos(phi) sin(theta), sin(phi) sin(theta),
    cos(theta))."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("axis angles must be finite")

    @property
    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([math.cos(self.phi) * st,
                         math.sin(self.phi) * st,
                         math.cos(self.theta)])


@dataclass(frozen=True)
class ProjectionResult:
    """HH/LH/SO weights of a valence doublet along some axis."""

    p_hh: float
    p_lh: float
    p_so: float

    @property
    def total(self) -> float:
        return self.p_hh + self.p_lh + self.p_so


def j_operator(component: str) -> np.ndarray:
    """J_x, J_y or J_z on the (HH+3/2, LH+1/2, LH-1/2, HH-3/2) quadruplet,
    in units of hbar.  J_y follows from [J_z, J_x] = i J_y."""
    s32 = math.sqrt(3.0) / 2.0
    jz = np.diag([1.5, 0.5, -0.5, -1.5]).astype(complex)
    jx = np.array([[0.0, s32, 0.0, 0.0],
                   [s32, 0.0, 1.0, 0.0],
                   [0.0, 1.0, 0.0, s32],
                   [0.0, 0.0, s32, 0.0]], dtype=complex)
    if component == "z":
        return jz
    if component == "x":
        return jx
    if component == "y":
        return -1j * (jz @ jx - jx @ jz)
    raise ValueError(f"component must be 'x', 'y' or 'z', got {component!r}")


def _spin_rotation(theta: float, phi: float) -> np.ndarray:
    """Rows express the spinors quantized along n in the z-spinors."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    em, ep = np.exp(-0.5j * phi), np.exp(0.5j * phi)
    return np.array([[em * c, ep * s],
                     [-em * s, ep * c]])


def _orbital_rotation(theta: float, phi: float) -> np.ndarray:
    """Rows express the primed orbitals (X', Y', Z') in (X, Y, Z);
    Z' points along n."""
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    return np.array([[ct * cp, ct * sp, -st],
                     [-sp, cp, 0.0],
                     [st * cp, st * sp, ct]])


def _rotation_matrix(axis: QuantizationAxis) -> np.ndarray:
    """8x8 unitary whose columns are the rotated Bloch basis states
    (ordering of kp_bulk.BLOCH_LABELS) expressed in the canonical basis."""
    ro = np.eye(4, dtype=complex)
    ro[1:, 1:] = _orbital_rotation(axis.theta, axis.phi)  # S is spherical
    rs = _spin_rotation(axis.theta, axis.phi)
    # product-basis transform, index = 4*spin + orbital: column (o', s')
    # holds that primed basis vector expressed in the canonical products;
    # the same products as np.kron(rs.T, ro.T), without its overhead
    t = (rs.T[:, None, :, None] * ro.T[None, :, None, :]).reshape(8, 8)
    return _BLOCH_ORBITALS.conj().T @ t @ _BLOCH_ORBITALS


def rotated_basis(axis: QuantizationAxis) -> list[SpinorState]:
    """The eight Bloch basis states quantized along ``axis``.

    At theta = phi = 0 this is exactly the canonical basis.  The HH/LH
    states span the J = 3/2 quadruplet and the SO states the J = 1/2
    doublet for every axis, so the three pair subspaces are rotation
    covariant.
    """
    w = _rotation_matrix(axis)
    return [SpinorState(w[:, j]) for j in range(8)]


def project_hgs(doublet, axis: QuantizationAxis, *,
                degeneracy_atol: float = 1e-6) -> ProjectionResult:
    """Project a degenerate valence doublet onto the rotated basis.

    Weights are averaged over the doublet and summed over each rotated
    pair, so the result does not depend on how the degenerate subspace
    was split by the eigensolver.
    """
    psi = validate_doublet(*doublet, degeneracy_atol=degeneracy_atol)
    return ProjectionResult(*_project(psi, axis).tolist())


def _project(psi: np.ndarray, axis: QuantizationAxis) -> np.ndarray:
    """(p_hh, p_lh, p_so), last axis, of states psi (..., 6 or 8, j),
    averaged over the j columns; each is the weight (1/2) sum_j
    |b^dagger psi_j|^2 of the rotated basis states b of a pair."""
    overlap = np.conj(_rotation_matrix(axis).T) @ _full8(psi)
    weight = 0.5 * np.sum(np.abs(overlap) ** 2, axis=-1)
    pairs = weight[..., HH_INDICES + LH_INDICES + SO_INDICES]
    return pairs.reshape(weight.shape[:-1] + (3, 2)).sum(axis=-1)


def commutator_norm(j: np.ndarray, h4: np.ndarray) -> float:
    """Frobenius norm of [J, H] = JH - HJ."""
    j = np.asarray(j, dtype=complex)
    h4 = np.asarray(h4, dtype=complex)
    return float(np.linalg.norm(j @ h4 - h4 @ j))


def default_theta_grid(steps: int = 61) -> np.ndarray:
    """Polar angles from the z axis to the x axis."""
    return np.linspace(0.0, math.pi / 2.0, steps)


def mixing_curve(stresses_gpa, prestress: StrainState | None,
                 axis: QuantizationAxis, p: MaterialParams, *,
                 abscissa: str = "total") -> np.ndarray:
    """HH/LH/SO character of the hole ground state along a uniaxial
    stress sweep, one row (strain_xx, p_hh, p_lh, p_so) per stress.

    ``abscissa`` selects whether the reported e_xx includes the
    prestress contribution ("total", default) or only the uniaxial part
    ("uniaxial").
    """
    return _mixing_curves(stresses_gpa, prestress, (axis,), p,
                          abscissa=abscissa)[0]


def _mixing_curves(stresses_gpa, prestress: StrainState | None, axes,
                   p: MaterialParams, *,
                   abscissa: str = "total") -> list[np.ndarray]:
    """``mixing_curve`` for each of ``axes``, from one solve of the
    sweep's doublets."""
    if abscissa not in ("total", "uniaxial"):
        raise ValueError("abscissa must be 'total' or 'uniaxial'")
    uniaxial, total = uniaxial_sweep(stresses_gpa, p, prestress)
    _, psi = _doublet_stack(total, p)
    exx = (total if abscissa == "total" else uniaxial)[:, :1]
    return [np.hstack([exx, _project(psi, axis)]) for axis in axes]


def mixing_map(stresses_gpa, prestress: StrainState | None,
               p: MaterialParams, *, thetas=None, phi: float = 0.0):
    """p_hh of the hole ground state over a (theta, strain) grid.

    Returns ``(thetas, strain_xx, p_hh_map)`` with the map indexed as
    ``p_hh_map[i_theta, i_strain]``.  The theta = 0 and theta = pi/2
    columns coincide with mixing_curve for the z and in-plane axes.
    """
    thetas = default_theta_grid() if thetas is None else np.asarray(thetas)
    stresses = np.asarray(stresses_gpa, dtype=float)
    if thetas.size == 0 or stresses.size == 0:
        raise ValueError("theta and stress grids must be nonempty")
    # p_hh = (1/2) tr(P rho) with both factors Hermitian, so it is the real
    # dot product of their flattened real and imaginary parts: one
    # (n_theta, 128) @ (128, n_strain) product for the whole grid
    hh = np.stack([_rotation_matrix(QuantizationAxis(t, phi))[:, HH_INDICES]
                   for t in thetas])
    _, total = uniaxial_sweep(stresses, p, prestress)
    _, psi = _doublet_stack(total, p)
    proj = _real_flat(hh @ np.conj(np.swapaxes(hh, -1, -2)))
    rho = _real_flat(psi @ np.conj(np.swapaxes(psi, -1, -2)))
    return thetas, total[:, 0], 0.5 * (proj @ rho.T)


def _real_flat(m: np.ndarray) -> np.ndarray:
    """Matrices (n, a, b) as rows (n, 2ab): real parts, then imaginary."""
    m = m.reshape(len(m), -1)
    return np.hstack([m.real, m.imag])
