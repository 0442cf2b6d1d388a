"""Finite-difference hole states of a strained GaAs/AlGaAs quantum well.

At in-plane wavevector zero, kz in the valence Hamiltonian is replaced
by -i d/dz and the z dependence of the band edges acts as the potential.
Position-dependent kz^2 coefficients A(z) are discretized with the
Hermitian box scheme

    kz A kz -> [ -(A_i + A_{i+1}) psi_{i+1} + (A_{i-1} + 2 A_i + A_{i+1})
                 psi_i - (A_{i-1} + A_i) psi_{i-1} ] / (2 h^2)

on N interior nodes with hard-wall (Dirichlet) boundaries at the domain
edges.  The applied strain is taken constant through the stack and is
computed from the well material's stiffness (the barrier inherits it).

Emission energies can be taken either from an explicit well geometry or
from a bulk calculation with fixed confinement offsets that push the CB
up and the HH/LH edges down.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np
import scipy.linalg

from . import kp_bulk
from ._parallel import map_ordered
from .axis import ProjectionResult, QuantizationAxis, _project
from .elasticity import StrainState, uniaxial_sweep
from .kp_bulk import HBAR2_OVER_2M0
from .materials import MaterialParams, algaas

__all__ = [
    "DEFAULT_EMULATION_OFFSETS",
    "EmulationOffsets",
    "EnvelopeState",
    "QwGeometry",
    "build_qw_hamiltonian",
    "envelope_projection",
    "qw_mixing_vs_strain",
    "solve_qw",
    "transition_energy",
    "vb_edge_profile",
]

_SQ2 = math.sqrt(2.0)
_SQ32 = math.sqrt(1.5)


@dataclass(frozen=True)
class QwGeometry:
    """Well of thickness h embedded between two identical barriers."""

    well_thickness_nm: float
    barrier_thickness_nm: float = 20.0
    barrier_al_fraction: float = 0.4
    grid_points: int = 301

    def __post_init__(self):
        if not self.well_thickness_nm > 0:
            raise ValueError("well thickness must be positive")
        if not self.barrier_thickness_nm > 0:
            raise ValueError("barrier thickness must be positive")
        if not 0.0 <= self.barrier_al_fraction <= 1.0:
            raise ValueError("barrier Al fraction must lie in [0, 1]")
        if self.grid_points < 51 or self.grid_points % 2 == 0:
            raise ValueError(
                f"grid must have at least 51 points and be odd so a node "
                f"sits at the well center, got {self.grid_points}")

    @property
    def total_length_nm(self) -> float:
        return self.well_thickness_nm + 2.0 * self.barrier_thickness_nm

    def grid(self) -> np.ndarray:
        """Interior node positions; the implicit Dirichlet zeros sit one
        spacing outside both ends."""
        n = self.grid_points
        h = self.total_length_nm / (n + 1)
        return -self.total_length_nm / 2.0 + h * np.arange(1, n + 1)

    def spacing(self) -> float:
        return self.total_length_nm / (self.grid_points + 1)


@dataclass(frozen=True)
class EnvelopeState:
    """One hole state: energy plus band-resolved envelope coefficients
    of shape (6, N) over the grid, unit-normalized."""

    energy: float
    coefficients: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.ndim != 2 or c.shape[0] != 6:
            raise ValueError("envelope coefficients must have shape (6, N)")
        norm = np.linalg.norm(c)
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"envelope norm {norm} deviates from 1")
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

    def band_weights(self) -> np.ndarray:
        """Per-band probability, summed over the grid (length 6)."""
        return np.sum(np.abs(self.coefficients) ** 2, axis=1)

    def density(self) -> np.ndarray:
        """|envelope|^2 summed over bands (length N)."""
        return np.sum(np.abs(self.coefficients) ** 2, axis=0)


@dataclass(frozen=True)
class EmulationOffsets:
    """Fixed confinement shifts for bulk emulation of a well.

    All three values are positive confinement energies: cb_shift moves
    the CB up, hh_shift and lh_shift move the HH and LH band edges down
    (electron picture).
    """

    cb_shift: float
    hh_shift: float
    lh_shift: float

    def __post_init__(self):
        for name, v in (("cb_shift", self.cb_shift),
                        ("hh_shift", self.hh_shift),
                        ("lh_shift", self.lh_shift)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")


#: CB/HH/LH confinement energies emulating an 8 nm well (eV).
DEFAULT_EMULATION_OFFSETS = EmulationOffsets(0.0528, 0.0091, 0.010)


def _materials_profile(geometry: QwGeometry, table, well=None, barrier=None):
    well = well if well is not None else table["GaAs"]
    if barrier is None:
        barrier = algaas(geometry.barrier_al_fraction, table)
    z = geometry.grid()
    inside = np.abs(z) <= geometry.well_thickness_nm / 2.0
    return z, inside, well, barrier


def vb_edge_profile(geometry: QwGeometry, table, well=None, barrier=None):
    """(z, E_v(z)): the unstrained HH/LH band edge along the growth axis."""
    z, inside, well, barrier = _materials_profile(geometry, table,
                                                  well, barrier)
    ev = np.where(inside, well.vb_edge, barrier.vb_edge)
    return z, ev


def _site_value(attr, inside, well, barrier) -> np.ndarray:
    return np.where(inside, getattr(well, attr), getattr(barrier, attr))


def _kinetic(a: np.ndarray, h: float) -> np.ndarray:
    """Tridiagonal block for kz a(z) kz with Dirichlet boundaries; the
    off-grid neighbours of the end nodes reuse the end values."""
    ae = np.concatenate([[a[0]], a, [a[-1]]])
    main = (ae[:-2] + 2.0 * ae[1:-1] + ae[2:]) / (2.0 * h * h)
    off = -(a[:-1] + a[1:]) / (2.0 * h * h)
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1)


def build_qw_hamiltonian(geometry: QwGeometry, strain: StrainState, table, *,
                         well: MaterialParams | None = None,
                         barrier: MaterialParams | None = None) -> np.ndarray:
    """6N x 6N electron-picture Hamiltonian of the well at k_parallel = 0.

    Band blocks follow the VB ordering of the bulk module; each scalar
    entry of the bulk 6x6 becomes an N x N block, tridiagonal where the
    entry carries kz^2 content (the g1 and g2 kinetic terms) and diagonal
    otherwise.  The result is Hermitian by construction.
    """
    z, inside, well, barrier = _materials_profile(geometry, table,
                                                  well, barrier)
    h = geometry.spacing()
    n = geometry.grid_points
    tr = strain.trace()
    exx, eyy, ezz = strain.exx, strain.eyy, strain.ezz
    eyz, exz, exy = strain.eyz, strain.exz, strain.exy

    g1 = _site_value("gamma1", inside, well, barrier)
    g2 = _site_value("gamma2", inside, well, barrier)
    av = _site_value("av", inside, well, barrier)
    b = _site_value("b", inside, well, barrier)
    d = _site_value("d", inside, well, barrier)
    dso = _site_value("delta", inside, well, barrier)
    ev_hole = -np.where(inside, well.vb_edge, barrier.vb_edge)

    pe = -av * tr
    qe = -0.5 * b * (exx + eyy - 2.0 * ezz)
    re = 0.5 * math.sqrt(3.0) * b * (exx - eyy) - 1.0j * d * exy
    se = -d * (exz - 1.0j * eyz)

    p_blk = np.diag((ev_hole + pe).astype(complex)) \
        + _kinetic(HBAR2_OVER_2M0 * g1, h)
    q_blk = np.diag(qe.astype(complex)) \
        + _kinetic(-2.0 * HBAR2_OVER_2M0 * g2, h)
    r_blk = np.diag(re.astype(complex))
    s_blk = np.diag(se.astype(complex))
    d_blk = np.diag(dso.astype(complex))
    zero = np.zeros((n, n), dtype=complex)

    def dag(m):
        return m.conj().T

    hole = np.block([
        [p_blk + q_blk, -s_blk, r_blk, zero, -s_blk / _SQ2, _SQ2 * r_blk],
        [dag(-s_blk), p_blk - q_blk, zero, r_blk, -_SQ2 * q_blk,
         _SQ32 * s_blk],
        [dag(r_blk), zero, p_blk - q_blk, s_blk, _SQ32 * dag(s_blk),
         _SQ2 * q_blk],
        [zero, dag(r_blk), dag(s_blk), p_blk + q_blk, -_SQ2 * dag(r_blk),
         -dag(s_blk) / _SQ2],
        [dag(-s_blk / _SQ2), -_SQ2 * dag(q_blk), _SQ32 * s_blk,
         -_SQ2 * r_blk, p_blk + d_blk, zero],
        [_SQ2 * dag(r_blk), _SQ32 * dag(s_blk), _SQ2 * dag(q_blk),
         -s_blk / _SQ2, zero, p_blk + d_blk]])
    return -hole


def solve_qw(geometry: QwGeometry, strain: StrainState, table,
             n_states: int = 4, *, well: MaterialParams | None = None,
             barrier: MaterialParams | None = None) -> list[EnvelopeState]:
    """Topmost hole states, descending in energy (Kramers pairs).

    The hole ground state is the first returned doublet.
    """
    ham = build_qw_hamiltonian(geometry, strain, table,
                               well=well, barrier=barrier)
    dim = ham.shape[0]
    n_states = min(n_states, dim)
    energies, vectors = scipy.linalg.eigh(
        ham, subset_by_index=[dim - n_states, dim - 1])
    z = geometry.grid()
    states = []
    for i in range(n_states - 1, -1, -1):
        vec = vectors[:, i]
        pivot = np.flatnonzero(np.abs(vec) > 1e-10)
        if pivot.size:
            vec = vec * (abs(vec[pivot[0]]) / vec[pivot[0]])
        states.append(EnvelopeState(energy=float(energies[i]),
                                    coefficients=vec.reshape(6, -1), z=z))
    return states


def envelope_projection(doublet, axis: QuantizationAxis) -> ProjectionResult:
    """HH/LH/SO character of an envelope doublet along ``axis``.

    The rotated-band projector acts on the Bloch index and the identity
    on the grid index, so the weights reduce to the per-band content at
    axis = z and stay doublet-remix invariant for any axis.
    """
    a, b = doublet
    if abs(a.energy - b.energy) > 1e-6:
        raise ValueError("envelope states are not degenerate")
    psi = np.hstack([a.coefficients, b.coefficients])
    return ProjectionResult(*_project(psi, axis).tolist())


def qw_mixing_vs_strain(thicknesses_nm, stresses_gpa, axes, table, *,
                        barrier_thickness_nm: float = 20.0,
                        barrier_al_fraction: float = 0.4,
                        grid_points: int = 301,
                        threads: int = 1) -> dict[float, np.ndarray]:
    """Mixing curves for several well thicknesses under uniaxial stress.

    Returns one (n_stress, 1 + 3 len(axes)) array per thickness, with
    rows (strain_xx, p_hh, p_lh, p_so for each axis in ``axes``); every
    axis projects the same solved doublet.  The well is GaAs and the
    strain is computed from its stiffness.
    """
    _, strains = uniaxial_sweep(stresses_gpa, table["GaAs"])
    out = {}
    for t in thicknesses_nm:
        geometry = QwGeometry(t, barrier_thickness_nm, barrier_al_fraction,
                              grid_points)

        def one(voigt, geometry=geometry):
            states = solve_qw(geometry, StrainState(*voigt), table, 2)
            return [voigt[0]] + [
                v for axis in axes
                for v in astuple(envelope_projection(states[:2], axis))]

        out[float(t)] = np.array(map_ordered(one, strains, threads))
    return out


def transition_energy(target, strain: StrainState, table) -> float:
    """CB-to-hole-ground-state transition energy (eV), no excitonics.

    ``target`` is either a QwGeometry (the hole state is solved in the
    well and the CB energy is the hydrostatically shifted well edge) or
    an EmulationOffsets (bulk hole state with the fixed confinement
    shifts applied, CB additionally raised by cb_shift).
    """
    gaas = table["GaAs"]
    tr = strain.trace()
    cb = gaas.cb_edge + gaas.ac * tr
    if isinstance(target, EmulationOffsets):
        doublet = kp_bulk.top_valence_doublet(
            strain, gaas, hh_shift=-target.hh_shift,
            lh_shift=-target.lh_shift)
        return cb + target.cb_shift - doublet[0].energy
    if isinstance(target, QwGeometry):
        states = solve_qw(target, strain, table, n_states=2)
        return cb - states[0].energy
    raise TypeError("target must be a QwGeometry or EmulationOffsets")
