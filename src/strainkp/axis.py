"""Quantization-axis analysis of valence states.

Provides the angular-momentum operators on the HH/LH quadruplet, the
HH/LH/SO basis rotated to an axis n(theta, phi), and the doublet-averaged
projection onto it,

    p_b = (1/2) sum_{i in doublet} sum_{j in pair b} |<state_i|b_n^j>|^2,

the only basis-independent HH/LH/SO character, as no unitary remixing of
the degenerate pair changes it.  On the J = 3/2 quadruplet the HH
projector along n is ((J.n)^2 - 1/4)/2, and the J = 3/2 and 1/2
subspaces do not depend on n.  So with q_i the HH/LH part of state_i,
M_ab = Re sum_i (J_a q_i)^dagger (J_b q_i), t = sum_i |q_i|^2 and s the
SO weight,

    p_hh(n) = n^T M n / 4 - t/16,  p_lh = t/2 - p_hh,  p_so = s/2:

one real symmetric 3x3 tensor per doublet (``_hgs_tensor``) gives every
axis without a rotated basis; ``rotated_basis`` is the tests' reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elasticity import StrainState, uniaxial_sweep
from .kp_bulk import (_BLOCH_ORBITALS, VB_SLICE, SpinorState, _doublet_stack,
                      _full8, validate_doublet)
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
    jx = np.diag([s32, 1.0, s32], 1).astype(complex)
    jx += jx.T
    if component == "z":
        return jz
    if component == "x":
        return jx
    if component == "y":
        return -1j * (jz @ jx - jx @ jz)
    raise ValueError(f"component must be 'x', 'y' or 'z', got {component!r}")


def rotated_basis(axis: QuantizationAxis) -> list[SpinorState]:
    """The eight Bloch basis states quantized along ``axis``.

    At theta = phi = 0 this is exactly the canonical basis.  The HH/LH
    states span the J = 3/2 quadruplet and the SO states the J = 1/2
    doublet for every axis, so the three pair subspaces are rotation
    covariant.
    """
    ct, st = math.cos(axis.theta), math.sin(axis.theta)
    cp, sp = math.cos(axis.phi), math.sin(axis.phi)
    c, s = math.cos(axis.theta / 2.0), math.sin(axis.theta / 2.0)
    em, ep = np.exp(-0.5j * axis.phi), np.exp(0.5j * axis.phi)
    # rows: the orbitals (S, X', Y', Z'), Z' along n, in (S, X, Y, Z) and
    # the spinors quantized along n in the z-spinors
    ro = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, ct * cp, ct * sp, -st],
                   [0.0, -sp, cp, 0.0], [0.0, st * cp, st * sp, ct]])
    rs = np.array([[em * c, ep * s], [-em * s, ep * c]])
    # column 4 s' + o' is that primed product in the canonical products
    w = _BLOCH_ORBITALS.conj().T @ np.kron(rs.T, ro.T) @ _BLOCH_ORBITALS
    return [SpinorState(w[:, j]) for j in range(8)]


def project_hgs(doublet, axis: QuantizationAxis, *,
                degeneracy_atol: float = 1e-6) -> ProjectionResult:
    """Project a degenerate valence doublet onto the rotated basis.

    Weights are averaged over the doublet and summed over each rotated
    pair, so the result does not depend on how the degenerate subspace
    was split by the eigensolver.
    """
    psi = validate_doublet(*doublet, degeneracy_atol=degeneracy_atol)
    return ProjectionResult(*_project(psi, [axis.unit_vector])[0].tolist())


# a row (Re c, Im c) of six VB coefficients c times this is (Re, Im) of
# the rows (J_x q, J_y q, J_z q), q the HH/LH part of c, component-minor
_J_ROWS = np.vstack([np.stack([j_operator(c).T for c in "xyz"], -1)
                     .reshape(4, 12), np.zeros((2, 12))])
_J_REAL = np.block([[_J_ROWS.real, _J_ROWS.imag],
                    [-_J_ROWS.imag, _J_ROWS.real]])


def _hgs_tensor(psi: np.ndarray):
    """(M, t, s) of the module docstring for the j columns of states psi
    (..., 6 or 8, j): shapes (..., 3, 3), (...) and (...)."""
    # one 2-D product over all columns, then one 3x3 product per doublet
    columns = np.swapaxes(_full8(psi)[..., VB_SLICE, :], -1, -2)
    batch = columns.shape[:-2]
    v = columns.reshape(-1, 6)
    x = np.concatenate([v.real, v.imag], 1)
    amp = (x @ _J_REAL).reshape(batch + (-1, 3))
    w = (x * x).reshape(batch + (-1, 6)).sum(-2)
    return amp.swapaxes(-1, -2) @ amp, w[..., :4].sum(-1), w[..., 4:].sum(-1)


def _project(psi: np.ndarray, directions) -> np.ndarray:
    """(p_hh, p_lh, p_so), shape (..., d, 3), of states psi (..., 6 or 8,
    j) averaged over the j columns, along each unit row of ``directions``."""
    m, t, s = _hgs_tensor(psi)
    p = np.empty(t.shape + (len(directions), 3))
    p[..., 0] = _p_hh(m, t, np.asarray(directions, dtype=float))
    p[..., 1] = 0.5 * t[..., None] - p[..., 0]
    p[..., 2] = 0.5 * s[..., None]
    return p


def _p_hh(m: np.ndarray, t: np.ndarray, n: np.ndarray) -> np.ndarray:
    """p_hh (..., d) along the unit rows of n (d, 3) from M and t: one
    (..., 9) @ (9, d) product with the outer products n n^T."""
    nn = (n[:, :, None] * n[:, None, :]).reshape(-1, 9)
    return 0.25 * (m.reshape(t.shape + (9,)) @ nn.T) - t[..., None] / 16


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
    weights = _project(psi, [axis.unit_vector for axis in axes])
    return [np.hstack([exx, weights[:, i]]) for i in range(len(axes))]


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
    if not (np.isfinite(thetas).all() and math.isfinite(phi)):
        raise ValueError("axis angles must be finite")
    _, total = uniaxial_sweep(stresses, p, prestress)
    _, psi = _doublet_stack(total, p)
    # n(theta, phi) as in QuantizationAxis.unit_vector, one row per theta
    n = np.column_stack([math.cos(phi) * np.sin(thetas),
                         math.sin(phi) * np.sin(thetas), np.cos(thetas)])
    m, t, _ = _hgs_tensor(psi)
    return thetas, total[:, 0], _p_hh(m, t, n).T
