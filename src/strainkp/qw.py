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

One private builder gives each node's 6x6 diagonal block and the block
coupling it to the next node.  ``build_qw_hamiltonian`` assembles them
into a dense band-major matrix, kept as the reference for tests and
benchmarks; ``solve_qw`` assembles the same blocks site-major into a
sparse block-tridiagonal matrix and finds the topmost states by ARPACK
shift-invert with a shift proven to lie above the spectrum (see its
docstring).  scipy is imported only there, so bulk-only use never loads
it.

Emission energies can be taken either from an explicit well geometry or
from a bulk calculation with fixed confinement offsets that push the CB
up and the HH/LH edges down.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import partial

import numpy as np

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

# distance of the shift-invert shift above the bound on the QW spectrum
# (eV), and the seed of ARPACK's fixed start vector
_SHIFT_MARGIN_EV = 1e-3
_START_SEED = 20240817


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


def _node_blocks(geometry: QwGeometry, strain: StrainState, table, well,
                 barrier):
    """Block formulas of the well Hamiltonian, shared by the dense and the
    sparse assembly.

    Returns (diag, upper, onsite, a): each node's diagonal 6x6 block
    (N, 6, 6), the block coupling node i to node i + 1 (N - 1, 6, 6),
    and the k = 0 bulk 6x6 and kz^2 matrix A / h^2 of the well and the
    barrier material (2, 6, 6) each.  The block coupling node i + 1 to
    node i is the conjugate transpose of ``upper[i]``.
    """
    _, inside, well, barrier = _materials_profile(geometry, table,
                                                  well, barrier)
    kz = (0.0, 0.0, 1.0 / geometry.spacing())
    onsite = np.array([kp_bulk.h6_vb((0.0, 0.0, 0.0), strain, m)
                       for m in (well, barrier)])
    # A / h^2: the bulk kz^2 term at kz = 1/h (k-independent parts drop out)
    a = np.array([kp_bulk.h6_vb(kz, strain, m) for m in (well, barrier)]) \
        - onsite
    node = np.where(inside, 0, 1)
    an = a[node]
    ae = np.concatenate([an[:1], an, an[-1:]])
    diag = onsite[node] + (ae[:-2] + 2.0 * an + ae[2:]) / 2.0
    upper = -(an[:-1] + an[1:]) / 2.0
    return diag, upper, onsite, a


def build_qw_hamiltonian(geometry: QwGeometry, strain: StrainState, table, *,
                         well: MaterialParams | None = None,
                         barrier: MaterialParams | None = None) -> np.ndarray:
    """Dense 6N x 6N electron-picture Hamiltonian of the well at
    k_parallel = 0.

    Band-major: index band * N + node, bands in the VB order of the bulk
    module.  Each node's diagonal block is the bulk ``kp_bulk.h6_vb`` of
    its material at k = 0 and the applied strain; kz A kz adds the box
    scheme of the module docstring, with the off-grid neighbours of the
    end nodes reusing the end values.  The result is Hermitian by
    construction.  ``solve_qw`` assembles the same blocks as a sparse
    matrix; this dense form is the reference the tests compare it with.
    """
    diag, upper, _, _ = _node_blocks(geometry, strain, table, well, barrier)
    n = geometry.grid_points
    ham = np.zeros((6, n, 6, n), dtype=complex)
    i = np.arange(n)
    ham[:, i, :, i] = diag
    ham[:, i[:-1], :, i[1:]] = upper
    ham[:, i[1:], :, i[:-1]] = np.conj(np.swapaxes(upper, -1, -2))
    return ham.reshape(6 * n, 6 * n)


def _time_reversal() -> np.ndarray:
    """U of time reversal on the six VB coefficients, T psi = U conj(psi):
    i sigma_y K on the spin of the (S, X, Y, Z) x spin products of
    ``kp_bulk.bloch_orbital_matrix``, whose orbitals are real."""
    b = kp_bulk.bloch_orbital_matrix()
    spin = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(4))
    vb = kp_bulk.VB_SLICE
    return (np.conj(b.T) @ spin @ np.conj(b))[vb, vb]


def solve_qw(geometry: QwGeometry, strain: StrainState, table,
             n_states: int = 4, *, well: MaterialParams | None = None,
             barrier: MaterialParams | None = None) -> list[EnvelopeState]:
    """Topmost hole states, descending in energy (Kramers pairs).

    The hole ground state is the first returned doublet.  Phases follow
    ``kp_bulk.eigensolve``: the first significant coefficient is real and
    positive.  ``n_states`` must lie in 1 ... 6N - 2 (ARPACK needs fewer
    than 6N - 1).  Every returned pair (states 2j and 2j + 1) is checked
    to be a degenerate orthogonal doublet; a failed check, an unconverged
    eigensolve or a singular shifted matrix raises
    ``kp_bulk.NumericalError``.

    The blocks of ``build_qw_hamiltonian`` are assembled site-major
    (index node * 6 + band), where H is block tridiagonal with bandwidth
    11, as a sparse CSC matrix.  ARPACK shift-invert
    (``scipy.sparse.linalg.eigsh`` with shift sigma) returns the states
    nearest sigma.  sigma lies above the whole spectrum: H is the block
    diagonal of on-site k = 0 bulk blocks plus the discretized kz A kz,
    whose quadratic form is a sum over grid links of
    d^H (A_i + A_{i+1}) / 2h^2 d (d the difference of neighbouring
    nodes, the links to the hard walls included), so it is negative
    semidefinite when each material's A is.
    Then no eigenvalue of H exceeds the largest eigenvalue of the on-site
    blocks, and sigma is that plus a margin, so the states nearest sigma
    are the topmost ones.  A material whose A is not negative
    semidefinite (e.g. gamma1 < 2 gamma2) raises
    ``kp_bulk.NumericalError``.

    ARPACK starts from a fixed, seeded complex Gaussian vector: its
    default random start changes between calls, and a structured one
    such as all ones can miss a symmetry sector.  A Krylov space grown
    from one vector holds one direction per Kramers pair and finds the
    partner only through round-off, so ARPACK can return one member of a
    pair and a state of the next pair instead of the other member.  The
    Ritz vectors are therefore joined by their time-reversed copies
    T psi = U conj(psi) (node by node; T commutes with H at
    k_parallel = 0), which completes every pair they touch.  scipy also
    solves a complex matrix with ARPACK's non-Hermitian routine, whose
    Ritz vectors of a pair are not orthogonal.  So the joined vectors are
    orthonormalized (QR), H is diagonalized on their span
    (Rayleigh-Ritz), and the topmost ``n_states`` are kept before the
    phases are fixed.
    """
    n = geometry.grid_points
    dim = 6 * n
    if not 1 <= n_states <= dim - 2:
        raise ValueError(f"n_states must lie in 1 ... {dim - 2} for "
                         f"{n} grid points, got {n_states}")
    import scipy.sparse
    import scipy.sparse.linalg

    diag, upper, onsite, a = _node_blocks(geometry, strain, table, well,
                                          barrier)
    if np.linalg.eigvalsh(a).max() > 1e-12 * np.abs(a).max():
        raise kp_bulk.NumericalError(
            "the kz^2 matrix of the well or barrier material is not "
            "negative semidefinite (e.g. gamma1 < 2 gamma2), so no shift "
            "above the QW spectrum is known")
    sigma = np.linalg.eigvalsh(onsite).max() + _SHIFT_MARGIN_EV

    # site-major entries of the diagonal, upper and lower 6x6 blocks
    i = np.arange(n)
    blocks = np.concatenate([diag, upper,
                             np.conj(np.swapaxes(upper, -1, -2))])
    rows, cols = np.broadcast_arrays(
        6 * np.concatenate([i, i[:-1], i[1:]])[:, None, None]
        + np.arange(6)[:, None],
        6 * np.concatenate([i, i[1:], i[:-1]])[:, None, None]
        + np.arange(6))
    ham = scipy.sparse.csc_array((blocks.ravel(),
                                  (rows.ravel(), cols.ravel())),
                                 shape=(dim, dim))

    v0 = np.random.default_rng(_START_SEED).standard_normal(2 * dim) \
        .view(complex)
    try:
        _, ritz = scipy.sparse.linalg.eigsh(ham, k=n_states, sigma=sigma,
                                            v0=v0)
    except RuntimeError as exc:  # ArpackError, or SuperLU: singular factor
        raise kp_bulk.NumericalError(
            f"sparse QW eigensolve failed: {exc}") from exc
    ritz = ritz.reshape(n, 6, n_states)
    ritz = np.concatenate([ritz, _time_reversal() @ np.conj(ritz)], axis=2)
    q, _ = np.linalg.qr(ritz.reshape(dim, 2 * n_states))
    energies, u = np.linalg.eigh(np.conj(q.T) @ (ham @ q))
    energies = energies[:-n_states - 1:-1]
    vectors = (q @ u)[:, :-n_states - 1:-1].reshape(n, 6, n_states)
    vectors = kp_bulk._fix_phases(
        vectors.transpose(1, 0, 2).reshape(dim, n_states))
    pairs = n_states // 2
    kp_bulk._check_doublets(
        energies[:2 * pairs].reshape(pairs, 2),
        vectors[:, :2 * pairs].reshape(dim, pairs, 2).transpose(1, 0, 2))
    z = geometry.grid()
    return [EnvelopeState(energy=float(e), coefficients=v.reshape(6, -1), z=z)
            for e, v in zip(energies, vectors.T)]


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


def qw_mixing_vs_strain(geometries, stresses_gpa, axes, table, *,
                        threads: int = 1) -> list[np.ndarray]:
    """Mixing curves for several wells under uniaxial stress.

    Returns one (n_stress, 1 + 3 len(axes)) array per geometry, in the
    order of ``geometries``, with rows (strain_xx, p_hh, p_lh, p_so for
    each axis in ``axes``); every axis projects the same solved doublet.
    The well is GaAs and the strain is computed from its stiffness.
    """
    _, strains = uniaxial_sweep(stresses_gpa, table["GaAs"])

    def one(geometry, voigt):
        states = solve_qw(geometry, StrainState(*voigt), table, 2)
        return [voigt[0]] + [
            v for axis in axes
            for v in astuple(envelope_projection(states[:2], axis))]

    return [np.array(map_ordered(partial(one, geometry), strains, threads))
            for geometry in geometries]


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
