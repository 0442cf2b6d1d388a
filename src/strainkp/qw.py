"""Finite-difference hole states of a strained GaAs/AlGaAs quantum well.

At in-plane wavevector zero, kz in the valence Hamiltonian is replaced
by -i d/dz and the z dependence of the band edges acts as the potential.
The well and the bulk share one Hamiltonian: each grid node carries the
bulk 6x6 of ``kp_bulk`` (Luttinger-Kohn + Bir-Pikus) for its material at
k = 0 and the applied strain, plus the discretized kz A(z) kz, where A is
that material's bulk kz^2 coefficient matrix (real symmetric: the g1/g2
diagonal terms and the LH-SO coupling -sqrt(2) Q).  Every kz^2 term takes
the symmetrized ordering kz A(z) kz, discretized with the Hermitian box
scheme

    kz A kz -> [ -(A_i + A_{i+1}) psi_{i+1} + (A_{i-1} + 2 A_i + A_{i+1})
                 psi_i - (A_{i-1} + A_i) psi_{i-1} ] / (2 h^2)

on N interior nodes with hard-wall (Dirichlet) boundaries at the domain
edges.  At k_parallel = 0 the Hamiltonian has no term linear in kz (the
S term g3 kz k_parallel vanishes), so the ordering ambiguity of such
terms at interfaces (Foreman, PRB 48, 4964 (1993)) does not arise.  The
applied strain is taken constant through the stack and is computed from
the well material's stiffness (the barrier inherits it).

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
            raise kp_bulk.NumericalError(
                f"envelope norm {norm} deviates from 1")
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


def build_qw_hamiltonian(geometry: QwGeometry, strain: StrainState, table, *,
                         well: MaterialParams | None = None,
                         barrier: MaterialParams | None = None) -> np.ndarray:
    """6N x 6N electron-picture Hamiltonian of the well at k_parallel = 0.

    Band-major: index band * N + node, bands in the VB order of the bulk
    module.  Each node's diagonal block is the bulk ``kp_bulk.h6_vb`` of
    its material at k = 0 and the applied strain; kz A kz adds the box
    scheme of the module docstring, with the off-grid neighbours of the
    end nodes reusing the end values.  The result is Hermitian by
    construction.
    """
    _, inside, well, barrier = _materials_profile(geometry, table,
                                                  well, barrier)
    n = geometry.grid_points
    kz = (0.0, 0.0, 1.0 / geometry.spacing())
    onsite = np.array([kp_bulk.h6_vb((0.0, 0.0, 0.0), strain, m)
                       for m in (well, barrier)])
    # A / h^2: the bulk kz^2 term at kz = 1/h (k-independent parts drop out)
    a = np.array([kp_bulk.h6_vb(kz, strain, m) for m in (well, barrier)]) \
        - onsite
    node = np.where(inside, 0, 1)
    onsite, a = onsite[node], a[node]
    ae = np.concatenate([a[:1], a, a[-1:]])
    off = -(a[:-1] + a[1:]) / 2.0

    ham = np.zeros((6, n, 6, n), dtype=complex)
    i = np.arange(n)
    ham[:, i, :, i] = onsite + (ae[:-2] + 2.0 * a + ae[2:]) / 2.0
    ham[:, i[:-1], :, i[1:]] = off
    ham[:, i[1:], :, i[:-1]] = np.conj(np.swapaxes(off, -1, -2))
    return ham.reshape(6 * n, 6 * n)


def solve_qw(geometry: QwGeometry, strain: StrainState, table,
             n_states: int = 4, *, well: MaterialParams | None = None,
             barrier: MaterialParams | None = None) -> list[EnvelopeState]:
    """Topmost hole states, descending in energy (Kramers pairs).

    The hole ground state is the first returned doublet.  Phases follow
    ``kp_bulk.eigensolve``: the first significant coefficient is real and
    positive.
    """
    ham = build_qw_hamiltonian(geometry, strain, table,
                               well=well, barrier=barrier)
    dim = ham.shape[0]
    n_states = min(n_states, dim)
    energies, vectors = scipy.linalg.eigh(
        ham, subset_by_index=[dim - n_states, dim - 1])
    vectors = kp_bulk._fix_phases(vectors[:, ::-1])
    z = geometry.grid()
    return [EnvelopeState(energy=float(e), coefficients=v.reshape(6, -1), z=z)
            for e, v in zip(energies[::-1], vectors.T)]


def envelope_projection(doublet, axis: QuantizationAxis) -> ProjectionResult:
    """HH/LH/SO character of an envelope doublet along ``axis``.

    The rotated-band projector acts on the Bloch index and the identity
    on the grid index, so the weights reduce to the per-band content at
    axis = z and stay doublet-remix invariant for any axis.
    """
    a, b = doublet
    kp_bulk._check_doublets(
        np.array([a.energy, b.energy]),
        np.array([a.coefficients.ravel(), b.coefficients.ravel()]).T)
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
