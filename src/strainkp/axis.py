"""Quantization-axis analysis of valence states.

Provides the angular-momentum operators on the HH/LH quadruplet and the
doublet-averaged projection onto the HH/LH/SO basis rotated to an axis
n(theta, phi),

    p_b = (1/2) sum_{i in doublet} sum_{j in pair b} |<state_i|b_n^j>|^2,

the only basis-independent HH/LH/SO character, as no unitary remixing of
the degenerate pair changes it.  On the J = 3/2 quadruplet the HH
projector along n is ((J.n)^2 - 1/4)/2, and the J = 3/2 and 1/2
subspaces do not depend on n.  So with q_i the HH/LH part of state_i,
M_ab = Re sum_i (J_a q_i)^dagger (J_b q_i), t = sum_i |q_i|^2 and s the
SO weight,

    p_hh(n) = n^T M n / 4 - t/16,  p_lh = t/2 - p_hh,  p_so = s/2:

one real symmetric 3x3 tensor per doublet (``_hgs_tensor``) gives every
axis without building the rotated basis.
The sweeps solve all their doublets in one batch and project them along
every axis asked for: ``mixing_curve`` gives one (strain_xx, p_hh, p_lh,
p_so) table per axis, ``mixing_map`` p_hh over a (theta, strain) grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elasticity import StrainState, uniaxial_sweep
from .kp_bulk import Doublet, _doublet_stack, _valence
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


def project_hgs(doublet, axis: QuantizationAxis) -> ProjectionResult:
    """Project a degenerate valence doublet onto the rotated basis.

    Weights are averaged over the doublet and summed over each rotated
    pair, so the result does not depend on how the degenerate subspace
    was split by the eigensolver.  A ``Doublet`` is read as it is; any
    other pair of states is checked by making it one.
    """
    psi = _valence(Doublet(doublet).coefficients)
    return ProjectionResult(*_project(psi, [axis.unit_vector])[0].tolist())


# a row (Re c, Im c) of six VB coefficients c times this is (Re, Im) of
# the rows (J_x q, J_y q, J_z q), q the HH/LH part of c, component-minor
_J_ROWS = np.vstack([np.stack([j_operator(c).T for c in "xyz"], -1)
                     .reshape(4, 12), np.zeros((2, 12))])
_J_REAL = np.block([[_J_ROWS.real, _J_ROWS.imag],
                    [-_J_ROWS.imag, _J_ROWS.real]])


def _hgs_tensor(psi: np.ndarray):
    """(M, t, s) of the module docstring for the j columns of VB states
    psi (..., 6, j): shapes (..., 3, 3), (...) and (...)."""
    # one einsum over all columns, then one 3x3 product per doublet: the
    # einsum sums in numpy's own loop, where a 2-D BLAS product, growing
    # with the batch, would wake OpenBLAS's thread pool past its threshold
    columns = psi.swapaxes(-1, -2)
    batch, j = columns.shape[:-2], columns.shape[-2]
    v = columns.reshape(-1, 6)
    x = np.concatenate([v.real, v.imag], 1)
    # explicit sizes: a -1 cannot be resolved for an empty batch
    amp = np.einsum("ik,kl->il", x, _J_REAL).reshape(batch + (8 * j, 3))
    w = (x * x).reshape(batch + (2 * j, 6)).sum(-2)
    return amp.swapaxes(-1, -2) @ amp, w[..., :4].sum(-1), w[..., 4:].sum(-1)


def _project(psi: np.ndarray, directions) -> np.ndarray:
    """(p_hh, p_lh, p_so), shape (..., d, 3), of VB states psi (..., 6, j)
    averaged over the j columns, along each unit row of ``directions``."""
    m, t, s = _hgs_tensor(psi)
    p = np.empty(t.shape + (len(directions), 3))
    p[..., 0] = _p_hh(m, t, np.asarray(directions, dtype=float))
    p[..., 1] = 0.5 * t[..., None] - p[..., 0]
    p[..., 2] = 0.5 * s[..., None]
    return p


def _p_hh(m: np.ndarray, t: np.ndarray, n: np.ndarray) -> np.ndarray:
    """p_hh (..., d) along the unit rows of n (d, 3) from M and t: one
    (..., 9) by (9, d) einsum with the outer products n n^T.  A BLAS
    product of that size grows with the sweep and the grid and, past
    OpenBLAS's threshold, wakes its thread pool; einsum calls no BLAS."""
    nn = (n[:, :, None] * n[:, None, :]).reshape(-1, 9)
    p = np.einsum("...k,dk->...d", m.reshape(t.shape + (9,)), nn)
    p *= 0.25  # in place, so that no second array of its size is made
    p -= t[..., None] / 16
    return p


def commutator_norm(j: np.ndarray, h4: np.ndarray) -> float:
    """Frobenius norm of [J, H] = JH - HJ."""
    j = np.asarray(j, dtype=complex)
    h4 = np.asarray(h4, dtype=complex)
    return float(np.linalg.norm(j @ h4 - h4 @ j))


def default_theta_grid(steps: int = 61) -> np.ndarray:
    """Polar angles from the z axis to the x axis."""
    return np.linspace(0.0, math.pi / 2.0, steps)


def mixing_curve(stresses_gpa, prestress: StrainState | None, axes,
                 p: MaterialParams) -> list[np.ndarray]:
    """HH/LH/SO character of the hole ground state along a uniaxial
    stress sweep: for each of ``axes`` one (n, 4) array with a row
    (strain_xx, p_hh, p_lh, p_so) per stress, strain_xx including the
    prestress.  Every axis projects the same doublets, from one batched
    solve of the sweep; no stress gives (0, 4) arrays.
    """
    total = uniaxial_sweep(stresses_gpa, p, prestress)
    _, psi = _doublet_stack(total, p)
    weights = _project(psi, [axis.unit_vector for axis in axes])
    return [np.hstack([total[:, :1], weights[:, i]])
            for i in range(len(axes))]


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
    total = uniaxial_sweep(stresses, p, prestress)
    _, psi = _doublet_stack(total, p)
    # n(theta, phi) as in QuantizationAxis.unit_vector, one row per theta
    n = np.column_stack([math.cos(phi) * np.sin(thetas),
                         math.sin(phi) * np.sin(thetas), np.cos(thetas)])
    m, t, _ = _hgs_tensor(psi)
    return thetas, total[:, 0], _p_hh(m, t, n).T
