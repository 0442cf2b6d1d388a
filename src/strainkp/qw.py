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

One private builder gives the k = 0 bulk 6x6 and the kz^2 matrix of the
well and the barrier material, and one assembles from them each node's
diagonal block and the block coupling it to the next node.
``build_qw_hamiltonian`` assembles them into a dense band-major matrix,
kept as the reference for tests and benchmarks; ``solve_qw`` keeps them
as node blocks (site-major, block tridiagonal) and finds the topmost
states with the numpy-only shift-invert eigensolver of ``_blocktri``, at
a shift proven to lie above the spectrum (see ``solve_qw``).

That solver needs real symmetric couplings, and the well's are.  A is
the bulk 6x6 at kz = 1/h minus the one at k = 0, both at the applied
strain.  At k_parallel = 0 the kz parts of R (g2 (kx^2 - ky^2) and
g3 kx ky) and of S (g3 (kx - i ky) kz) are zeros of the same sign at
both wavevectors, so each takes the same strain value in both matrices
and its entry of A is that value minus itself, exactly zero, real and
imaginary part alike.  What remains are the kz^2 terms of P and Q and
the LH-SO entry -sqrt(2) Q, all real, and each lower entry of the bulk
6x6 is the conjugate of the upper one, so A is real and exactly
symmetric, and so are the couplings -(A_i + A_{i+1}) / 2h^2.  They are
kept as one real (N - 1, m, m) array.

Without e_xz and e_yz (every uniaxial or biaxial stress along the cubic
axes) S vanishes and the matrix splits exactly into {HH+3/2, LH-1/2,
SO-1/2} and their Kramers partners.  ``kp_bulk._kramers_solve``, the one
routine the bulk doublets use too, reads the split from the material
blocks before any node block is assembled; then only the 3N block is
assembled and solved, real unless e_xy is nonzero, and each Ritz vector
psi comes back with its partner T psi as an exact pair.  Sheared wells
solve the whole 6N matrix with the same solver, two vectors per Kramers
pair, and return its Ritz pairs as they are.  No part of the package
imports scipy.

``qw_mixing_vs_strain`` sweeps wells through uniaxial stress: per well,
the projections of each stress's hole doublet along the given axes and
its energy, one ``solve_qw`` per point.

Emission energies can be taken either from an explicit well geometry or
from a bulk calculation with fixed confinement offsets that push the CB
up and the HH/LH edges down; ``emulated_transition_energies`` gives the
latter for a whole uniaxial stress sweep from one batched bulk
eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import kp_bulk
from ._blocktri import _dense, _top_eigenvectors
from ._parallel import map_ordered
from .axis import ProjectionResult, QuantizationAxis, _project, project_hgs
from .elasticity import StrainState, _require_integer, uniaxial_sweep
from .materials import MaterialParams, algaas
from .states import NumericalError, SpinorState, _check_doublets, _fix_phases

__all__ = [
    "DEFAULT_EMULATION_OFFSETS",
    "EmulationOffsets",
    "QwGeometry",
    "build_qw_hamiltonian",
    "emulated_transition_energies",
    "envelope_projection",
    "qw_mixing_vs_strain",
    "solve_qw",
    "transition_energy",
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
        if not math.isfinite(self.total_length_nm):
            raise ValueError("well plus barriers must have a finite length")
        if not 0.0 <= self.barrier_al_fraction <= 1.0:
            raise ValueError("barrier Al fraction must lie in [0, 1]")
        _require_integer("grid_points", self.grid_points)
        if self.grid_points < 51 or self.grid_points % 2 == 0:
            raise ValueError(
                f"grid must have at least 51 points and be odd so a node "
                f"sits at the well center, got {self.grid_points}")
        nodes = np.count_nonzero(self.inside())
        if nodes < 3:
            raise ValueError(
                f"well_thickness_nm: a {self.well_thickness_nm:g} nm well "
                f"is thinner than two grid spacings (2h = "
                f"{2.0 * self.spacing():.6g} nm) and holds {nodes} node(s)")

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

    def inside(self) -> np.ndarray:
        """Mask of the grid nodes in the well, |z| <= w/2; a well holds at
        least three, the centre node and both neighbours."""
        return np.abs(self.grid()) <= self.well_thickness_nm / 2.0


@dataclass(frozen=True)
class EmulationOffsets:
    """Fixed confinement shifts for bulk emulation of a well.

    All three values are confinement energies, zero or positive:
    cb_shift moves the CB up, hh_shift and lh_shift move the HH and LH
    band edges down (electron picture).  They keep this sign all the way:
    ``_emulated`` adds cb_shift to the CB edge, and
    ``kp_bulk._doublet_stack`` subtracts hh_shift and lh_shift from the
    HH and LH diagonal of the bulk 6x6 before its solve.
    """

    cb_shift: float
    hh_shift: float
    lh_shift: float

    def __post_init__(self):
        for name, v in (("cb_shift", self.cb_shift),
                        ("hh_shift", self.hh_shift),
                        ("lh_shift", self.lh_shift)):
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(
                    f"{name} must be a finite confinement energy >= 0, "
                    f"got {v:g}")


#: CB/HH/LH confinement energies emulating an 8 nm well (eV).
DEFAULT_EMULATION_OFFSETS = EmulationOffsets(0.0528, 0.0091, 0.010)

# distance of the shift-invert shift above the bound on the QW spectrum
# (eV)
_SHIFT_MARGIN_EV = 1e-3


def _node_blocks(geometry: QwGeometry, strain: StrainState, table):
    """Material blocks of the well Hamiltonian, shared by the dense
    assembly and the solver.

    Returns (onsite, a, node): the k = 0 bulk 6x6 (complex) and the real
    symmetric kz^2 matrix A / h^2 (see the module docstring) of the well
    and the barrier material (2, 6, 6) each, and the material of each
    grid node (N,), 0 in the well and 1 in the barrier.  ``_assemble``
    turns them into node blocks; ``solve_qw`` has the Kramers split
    decided on them first, so a shear-free well never assembles its 6x6
    node blocks.
    """
    # the well material, GaAs, and the AlGaAs barrier material
    materials = table["GaAs"], algaas(geometry.barrier_al_fraction, table)
    kz = (0.0, 0.0, 1.0 / geometry.spacing())
    onsite = np.array([kp_bulk.h6_vb((0.0, 0.0, 0.0), strain, m)
                       for m in materials])
    # A / h^2: the bulk kz^2 term at kz = 1/h (k-independent parts drop
    # out); its imaginary part is exactly zero
    a = np.array([kp_bulk.h6_vb(kz, strain, m) for m in materials]) - onsite
    return onsite, a.real, np.where(geometry.inside(), 0, 1)


def _assemble(onsite: np.ndarray, a: np.ndarray,
              node: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The node blocks of a well from material blocks ``onsite`` and
    ``a`` (2, m, m) and the material of each node ``node`` (N,): each
    node's diagonal block (N, m, m) and the real symmetric blocks
    coupling node i to node i + 1 (N - 1, m, m), by the box scheme of the
    module docstring.  Every entry depends on the same entries of the
    material blocks alone, so assembling a restriction to some bands
    gives the same bits as restricting the assembled blocks.
    """
    an = a[node]
    ae = np.concatenate([an[:1], an, an[-1:]])
    diag = onsite[node] + (ae[:-2] + 2.0 * an + ae[2:]) / 2.0
    return diag, -(an[:-1] + an[1:]) / 2.0


def build_qw_hamiltonian(geometry: QwGeometry, strain: StrainState,
                         table) -> np.ndarray:
    """Dense 6N x 6N electron-picture Hamiltonian of the well at
    k_parallel = 0.

    Band-major: index band * N + node, bands in the VB order of the bulk
    module.  Each node's diagonal block is the bulk ``kp_bulk.h6_vb`` of
    its material at k = 0 and the applied strain; kz A kz adds the box
    scheme of the module docstring, with the off-grid neighbours of the
    end nodes reusing the end values.  The result is Hermitian by
    construction.  ``solve_qw`` works on the same blocks without
    assembling them; this dense form is the reference the tests compare
    it with.
    """
    diag, couplings = _assemble(*_node_blocks(geometry, strain, table))
    n = geometry.grid_points
    return _dense(diag, couplings).transpose(1, 0, 3, 2).reshape(6 * n,
                                                                 6 * n)


def solve_qw(geometry: QwGeometry, strain: StrainState, table,
             n_states: int = 4) -> list[SpinorState]:
    """Topmost hole states, descending in energy (Kramers pairs), each a
    ``SpinorState`` of (6, N) envelopes on ``geometry.grid()``.

    The hole ground state is the first returned doublet.  Phases follow
    ``kp_bulk.eigensolve``: the first significant coefficient is real and
    positive.  ``n_states`` must be an integer in 1 ... 6N.  Every
    returned pair (states 2j and 2j + 1) is checked to be a degenerate
    orthogonal doublet; a failed check, an eigensolve that does not
    converge or a shifted matrix that is not positive definite raises
    ``NumericalError``.

    The blocks of ``build_qw_hamiltonian`` are taken site-major (index
    node * 6 + band), where H is block tridiagonal, and the topmost
    states are found by shift-invert with a shift sigma above the whole
    spectrum: H is the block diagonal of on-site k = 0 bulk blocks plus
    the discretized kz A kz, whose quadratic form is a sum over grid
    links of d^H (A_i + A_{i+1}) / 2h^2 d (d the difference of
    neighbouring nodes, the links to the hard walls included), so it is
    negative semidefinite when each material's A is.  Then no eigenvalue
    of H exceeds the largest eigenvalue of the on-site blocks, and sigma
    is that plus a margin, so the states nearest sigma are the topmost
    ones.  A material whose A is not negative semidefinite (e.g.
    gamma1 < 2 gamma2) raises ``NumericalError``.

    So sigma I - H is Hermitian positive definite, and
    ``_blocktri._top_eigenvectors`` factors it by block cyclic reduction,
    checking every pivot, and iterates until every wanted Ritz pair has
    |H x - theta x| <= 1e-11 eV (or 100 round-offs of the largest entry
    of H on very fine grids), for at most 200 Rayleigh-Ritz steps.

    Without e_xz and e_yz (every uniaxial or biaxial stress along the
    cubic axes, also with e_xy), S vanishes at k_parallel = 0, where time
    reversal commutes with H node by node, and ``kp_bulk._kramers_solve``
    decides the split on the k = 0 bulk blocks and kz^2 matrices of the
    materials with a node on the grid.  Every assembled entry is a sum of
    theirs, so when they split so does H: only its 3N blocks on the first
    set are assembled, with the bits of the restriction of the 6N ones,
    and solved for ceil(n_states / 2) vectors, each returned with its
    partner T psi as an exact pair.  Were the materials' coupling entries
    to cancel exactly in the sums, the well would take the 6N path, which
    is valid for every well.  Diagonal blocks with an exactly zero
    imaginary part (no e_xy or e_yz) are solved real on either path.

    Sheared wells solve the whole 6N matrix for both members of each
    pair, 2 ceil(n_states / 2) vectors, and return its Ritz pairs as they
    are: the block holds both directions of every degenerate pair, so
    each wanted Ritz pair converges whole, and a missed partner fails the
    pair check instead of being patched up.  Both paths keep the first
    ``n_states`` states (an odd count drops the partner of the last
    pair).  The iteration starts from a fixed block of the solved
    matrix's size and type, uniform on [-1, 1) and hashed from the entry
    index and a seed, so repeated solves are bit for bit identical, and
    the phases are fixed last.
    """
    n = geometry.grid_points
    dim = 6 * n
    _require_integer("n_states", n_states)
    if not 1 <= n_states <= dim:
        raise ValueError(f"n_states must lie in 1 ... {dim} for "
                         f"{n} grid points, got {n_states}")

    onsite, a, node = _node_blocks(geometry, strain, table)
    if np.linalg.eigvalsh(a).max() > 1e-12 * np.abs(a).max():
        raise NumericalError(
            "the kz^2 matrix of the well or barrier material is not "
            "negative semidefinite (e.g. gamma1 < 2 gamma2), so no shift "
            "above the QW spectrum is known")
    sigma = np.linalg.eigvalsh(onsite).max() + _SHIFT_MARGIN_EV

    def solve(bands, count):
        rows = (..., bands[:, None], bands)
        diag, couplings = _assemble(onsite[rows], a[rows], node)
        return _top_eigenvectors(diag if diag.imag.any() else diag.real,
                                 couplings, sigma, count)

    # a mask, not np.unique, which would import numpy.ma (about 10 ms)
    present = np.bincount(node, minlength=2) > 0
    energies, vectors = kp_bulk._kramers_solve(
        np.concatenate([onsite[present], a[present]]), solve,
        (n_states + 1) // 2)
    energies = energies[:n_states]
    # (node, band, state) -> band-major (6N, state)
    vectors = _fix_phases(
        vectors[..., :n_states].transpose(1, 0, 2).reshape(dim, n_states))
    pairs = n_states // 2
    _check_doublets(
        energies[:2 * pairs].reshape(pairs, 2),
        vectors[:, :2 * pairs].reshape(dim, pairs, 2).transpose(1, 0, 2))
    return [SpinorState(v.reshape(6, -1), float(e))
            for e, v in zip(energies, vectors.T)]


def envelope_projection(doublet, axis: QuantizationAxis) -> ProjectionResult:
    """HH/LH/SO character of an envelope doublet along ``axis``.

    The rotated-band projector acts on the Bloch index and the identity
    on the grid index, so the weights reduce to the per-band content at
    axis = z and stay doublet-remix invariant for any axis.
    """
    return project_hgs(doublet, axis)


def qw_mixing_vs_strain(geometries, stresses_gpa, axes, table, *,
                        threads: int = 1) \
        -> list[tuple[np.ndarray, np.ndarray]]:
    """Mixing curves of several wells under uniaxial stress.

    Returns one ``(rows, energies)`` pair per geometry, in the order of
    ``geometries``: rows (n_stress, 1 + 3 len(axes)) of (strain_xx, then
    p_hh, p_lh, p_so for each axis in ``axes``), every axis projecting
    the same solved doublet, and the hole ground-state energy (eV) of
    each stress.  The well is GaAs and the strain is computed from its
    stiffness.  ``threads`` > 1 solves the stresses of a well on a
    thread pool, with the same result.
    """
    strains = uniaxial_sweep(stresses_gpa, table["GaAs"])
    directions = [axis.unit_vector for axis in axes]

    def one(geometry, voigt):
        # solve_qw has checked the pair, so it is projected without
        # envelope_projection's second check
        states = solve_qw(geometry, StrainState(*voigt), table, 2)
        psi = np.hstack([s.coefficients for s in states])
        row = [voigt[0]] + _project(psi, directions).ravel().tolist()
        return row, states[0].energy

    sweeps = []
    for geometry in geometries:
        points = map_ordered(partial(one, geometry), strains, threads)
        rows = np.array([row for row, _ in points])
        sweeps.append((rows.reshape(len(points), 1 + 3 * len(directions)),
                       np.array([energy for _, energy in points])))
    return sweeps


def _emulated(offsets: EmulationOffsets, voigt: np.ndarray,
              gaas: MaterialParams) -> np.ndarray:
    """``transition_energy`` of ``offsets`` at Voigt strains (..., 6) of
    one uniaxial sweep, or at one strain (6,), from one batched bulk
    eigensolve: an array of the batch shape (eV)."""
    cb = gaas.cb_edge + gaas.ac * (voigt[..., 0] + voigt[..., 1]
                                   + voigt[..., 2])
    energies, _ = kp_bulk._doublet_stack(voigt, gaas,
                                         hh_shift=offsets.hh_shift,
                                         lh_shift=offsets.lh_shift)
    return cb + offsets.cb_shift - energies[..., 0]


def emulated_transition_energies(offsets: EmulationOffsets, stresses_gpa,
                                 table) -> np.ndarray:
    """``transition_energy`` of ``offsets`` along a uniaxial [100] stress
    sweep of GaAs, from one batched bulk eigensolve: rows (n, 2) of
    (strain_xx, transition energy in eV), one per stress."""
    strains = uniaxial_sweep(stresses_gpa, table["GaAs"])
    return np.column_stack([strains[:, 0],
                            _emulated(offsets, strains, table["GaAs"])])


def transition_energy(target, strain: StrainState, table) -> float:
    """CB-to-hole-ground-state transition energy (eV), no excitonics.

    ``target`` is either a QwGeometry (the hole state is solved in the
    well and the CB energy is the hydrostatically shifted well edge) or
    an EmulationOffsets (bulk hole state with the fixed confinement
    shifts applied, CB additionally raised by cb_shift; see
    ``emulated_transition_energies`` for a whole sweep).
    """
    if isinstance(target, EmulationOffsets):
        return float(_emulated(target, strain.as_voigt(), table["GaAs"]))
    if isinstance(target, QwGeometry):
        gaas = table["GaAs"]
        states = solve_qw(target, strain, table, n_states=2)
        return gaas.cb_edge + gaas.ac * strain.trace() - states[0].energy
    raise TypeError("target must be a QwGeometry or EmulationOffsets")
