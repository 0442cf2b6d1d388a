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
states in numpy alone: shift-invert block subspace iteration with a
shift proven to lie above the spectrum, so sigma I - H is Hermitian
positive definite and block cyclic reduction factors it without pivoting
(see its docstring).  The iteration starts from a fixed block of uniform
values on [-1, 1) hashed from their index (``_start_block``), so no run
imports ``numpy.random``.  It stops when every wanted Ritz pair has a
residual |H x - theta x| of at most 1e-11 eV, and fails after 200
Rayleigh-Ritz steps.  Without e_xz and e_yz (every uniaxial or biaxial
stress along the cubic axes) S vanishes and the matrix splits exactly
into {HH+3/2, LH-1/2, SO-1/2} and their Kramers partners.  The split is
read from the material blocks, before any node block is assembled, by
``kp_bulk._kramers_block``, the one rule the bulk doublet sweep uses
too; then only that 3N block is assembled and solved, real unless e_xy
is nonzero, and each Ritz vector psi comes back with its partner T psi
(the one ``kp_bulk._TIME_REVERSAL``) as an exact pair.  Sheared wells
solve the whole 6N matrix with the same solver, two vectors per Kramers
pair, and return its Ritz pairs as they are.  No part of the package
imports scipy.

Emission energies can be taken either from an explicit well geometry or
from a bulk calculation with fixed confinement offsets that push the CB
up and the HH/LH edges down; ``emulated_transition_energies`` gives the
latter for a whole strain sweep from one batched bulk eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import kp_bulk
from ._parallel import map_ordered
from .axis import ProjectionResult, QuantizationAxis, _project, project_hgs
from .elasticity import StrainState, uniaxial_sweep
from .kp_bulk import _herm
from .materials import MaterialParams, algaas

__all__ = [
    "DEFAULT_EMULATION_OFFSETS",
    "EmulationOffsets",
    "EnvelopeState",
    "QwGeometry",
    "build_qw_hamiltonian",
    "emulated_transition_energies",
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
        if not math.isfinite(self.total_length_nm):
            raise ValueError("well plus barriers must have a finite length")
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
    of shape (6, N) over the grid z, unit-normalized; the state keeps
    read-only copies of the coefficients and of z."""

    energy: float
    coefficients: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=complex)
        if c.ndim != 2 or c.shape[0] != 6:
            raise ValueError("envelope coefficients must have shape (6, N)")
        norm = np.linalg.norm(c)
        if abs(norm - 1.0) > 1e-8:
            raise kp_bulk.NumericalError(
                f"envelope norm {norm} deviates from 1")
        z = np.array(self.z, dtype=float)
        for name, value in (("coefficients", c), ("z", z)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

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
# (eV), and the seed of the solver's fixed start block
_SHIFT_MARGIN_EV = 1e-3
_START_SEED = 20240817
# the subspace iteration stops when every wanted Ritz pair has
# |H x - theta x| below this (eV), or below 100 round-offs of the largest
# entry of H on grids so fine that 1e-11 eV is out of reach, and fails
# after this many Rayleigh-Ritz steps
_RESIDUAL_TOL_EV = 1e-11
_MAX_ITERATIONS = 200
# block cyclic reduction stops at this many nodes and inverts them densely
_DENSE_NODES = 8


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
    """Material blocks of the well Hamiltonian, shared by the dense
    assembly and the solver.

    Returns (onsite, a, node): the k = 0 bulk 6x6 and the kz^2 matrix
    A / h^2 of the well and the barrier material (2, 6, 6) each, and the
    material of each grid node (N,), 0 in the well and 1 in the barrier.
    ``_assemble`` turns them into node blocks; ``solve_qw`` decides the
    Kramers split on them first (``_kept_blocks``), so a shear-free well
    never assembles its 6x6 node blocks.
    """
    _, inside, well, barrier = _materials_profile(geometry, table,
                                                  well, barrier)
    kz = (0.0, 0.0, 1.0 / geometry.spacing())
    onsite = np.array([kp_bulk.h6_vb((0.0, 0.0, 0.0), strain, m)
                       for m in (well, barrier)])
    # A / h^2: the bulk kz^2 term at kz = 1/h (k-independent parts drop out)
    a = np.array([kp_bulk.h6_vb(kz, strain, m) for m in (well, barrier)]) \
        - onsite
    return onsite, a, np.where(inside, 0, 1)


def _assemble(onsite: np.ndarray, a: np.ndarray,
              node: np.ndarray) -> np.ndarray:
    """Node blocks in the ``_block_apply`` layout from material blocks
    ``onsite`` and ``a`` (2, m, m) and the material of each node ``node``
    (N,): each node's diagonal block, the block coupling node i to node
    i + 1 by the box scheme of the module docstring, and their conjugate
    transposes, (3N - 2, m, m).  Every entry depends on the same entries
    of the material blocks alone, so assembling a restriction to some
    bands gives the same bits as restricting the assembled blocks.
    """
    an = a[node]
    ae = np.concatenate([an[:1], an, an[-1:]])
    diag = onsite[node] + (ae[:-2] + 2.0 * an + ae[2:]) / 2.0
    upper = -(an[:-1] + an[1:]) / 2.0
    return np.concatenate([diag, upper, _herm(upper)])


def _kept_blocks(onsite: np.ndarray, a: np.ndarray,
                 node: np.ndarray) -> np.ndarray | None:
    """The 3N block of the well on ``kp_bulk._KEPT_BANDS``, in the
    ``_block_apply`` layout, if ``kp_bulk._kramers_block`` splits the
    material blocks of the materials on the grid, else None.

    Each coupling entry of an assembled block is a sum of the materials'
    coupling entries, so when theirs are all zero so are the assembled
    ones, and the kept block is bit for bit the restriction of the
    assembled 6N blocks: it is assembled complex and taken real (a view,
    as ``kp_bulk._kramers_block`` takes it) when its imaginary part is
    exactly zero.  A material with no node on the grid (a barrier thinner
    than the spacing) does not count, as it adds no entry to the blocks.
    """
    # a mask, not np.unique, which would import numpy.ma (about 10 ms)
    present = np.bincount(node, minlength=2) > 0
    if kp_bulk._kramers_block(np.concatenate([onsite[present],
                                              a[present]])) is None:
        return None
    bands = (..., kp_bulk._KEPT_BANDS[:, None], kp_bulk._KEPT_BANDS)
    kept = _assemble(onsite[bands], a[bands], node)
    return kept if kept.imag.any() else kept.real


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
    construction.  ``solve_qw`` works on the same blocks without
    assembling them; this dense form is the reference the tests compare
    it with.
    """
    blocks = _assemble(*_node_blocks(geometry, strain, table, well, barrier))
    n = geometry.grid_points
    return _dense(blocks[:n], blocks[n:2 * n - 1]).transpose(
        1, 0, 3, 2).reshape(6 * n, 6 * n)


def _dense(diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The block-tridiagonal Hermitian matrix of diagonal blocks ``diag``
    (n, m, m) and blocks ``upper`` (n - 1, m, m) coupling node i to
    i + 1, as a dense (n, m, n, m) array (node, band, node, band)."""
    n, m = diag.shape[:2]
    dense = np.zeros((n, m, n, m), diag.dtype)
    i = np.arange(n)
    dense[i, :, i] = diag
    dense[i[:-1], :, i[1:]] = upper
    dense[i[1:], :, i[:-1]] = _herm(upper)
    return dense


def _block_apply(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H x for node blocks (diagonal (n, m, m), then the n - 1 blocks
    coupling node i to i + 1, then their conjugate transposes; index
    node * m + band) and x of shape (n, m, p) (node, band, vector)."""
    n = x.shape[0]
    y = blocks[:n] @ x
    y[:-1] += blocks[n:2 * n - 1] @ x[1:]
    y[1:] += blocks[2 * n - 1:] @ x[:-1]
    return y


def _hpd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverses of Hermitian positive definite matrices (..., m, m), from
    their Cholesky factors; a matrix that is not positive definite raises
    ``kp_bulk.NumericalError``."""
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise kp_bulk.NumericalError(
            "the shifted QW matrix is not positive definite, so the shift "
            "does not lie above the spectrum") from exc
    inverse = np.linalg.inv(chol)
    return _herm(inverse) @ inverse


def _cr_factor(diag: np.ndarray, upper: np.ndarray):
    """Odd-even block cyclic reduction of the Hermitian positive definite
    block-tridiagonal M with diagonal blocks ``diag`` (n, m, m) and
    ``upper[i]`` coupling node i to node i + 1 (n - 1, m, m).

    Each level eliminates the odd nodes in one batched step; the even
    nodes keep a block-tridiagonal Schur complement, which is reduced in
    turn until at most ``_DENSE_NODES`` nodes are left, and those are
    inverted as one dense matrix.  This is a block Cholesky factorization
    in odd-even order, so M is positive definite exactly when every
    eliminated pivot block and the last dense matrix are, and each is
    checked by ``_hpd_inverse``.  Returns the levels (inverse pivots and
    the multipliers of both neighbours, with their conjugate transposes)
    and the dense inverse of the last nodes.
    """
    levels = []
    while len(diag) > _DENSE_NODES:
        half = (len(diag) + 1) // 2
        inverse = _hpd_inverse(diag[1::2])
        to_odd = upper[0::2]            # even node 2t -> odd node 2t + 1
        from_odd = upper[1::2]          # odd node 2t + 1 -> even 2t + 2
        right = to_odd @ inverse
        left = _herm(from_odd) @ inverse[:half - 1]
        diag = diag[0::2].copy()
        diag[:len(right)] -= right @ _herm(to_odd)
        diag[1:] -= left @ from_odd
        upper = -right[:half - 1] @ from_odd
        levels.append((inverse, right, left, _herm(right), _herm(left)))
    size = diag.shape[0] * diag.shape[1]
    return levels, _hpd_inverse(_dense(diag, upper).reshape(size, size))


def _cr_solve(factor, b: np.ndarray) -> np.ndarray:
    """M^-1 b for the ``_cr_factor`` of M and b of shape (n, m, p)."""
    levels, last = factor
    b = b.astype(np.result_type(b, last), copy=False)
    eliminated = []
    for _, right, left, _, _ in levels:
        odd = b[1::2]
        b = b[0::2].copy()
        b[:len(odd)] -= right @ odd
        b[1:] -= left @ odd[:len(b) - 1]
        eliminated.append(odd)
    x = (last @ b.reshape(len(last), -1)).reshape(b.shape)
    for (inverse, _, _, right_h, left_h), odd in zip(reversed(levels),
                                                      reversed(eliminated)):
        y = inverse @ odd - right_h @ x[:len(odd)]
        y[:len(x) - 1] -= left_h @ x[1:]
        full = np.empty((len(x) + len(odd),) + x.shape[1:], x.dtype)
        full[0::2] = x
        full[1::2] = y
        x = full
    return x


def _orthonormal(y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the columns of y (dim, p).

    Two passes of Cholesky QR: a p x p Gram matrix and two small
    products.  The Householder QR of ``np.linalg.qr`` costs two to three
    times more on these tall blocks (0.36-0.5 ms against 0.17 ms for
    1809 x 10 on 2 cores) and, probably because OpenBLAS splits it over
    threads, stalls when the other core is busy.  A block so
    ill-conditioned that a Cholesky factorization fails takes the
    Householder QR.
    """
    q = y
    try:
        for _ in range(2):
            inverse = np.linalg.inv(np.linalg.cholesky(np.conj(q.T) @ q))
            q = q @ _herm(inverse)
    except np.linalg.LinAlgError:
        return np.linalg.qr(y)[0]
    return q


def _start_block(rows: int, cols: int) -> np.ndarray:
    """The solver's fixed start block (rows, cols), uniform on [-1, 1).

    Entry i (row-major) is the SplitMix64 output (Steele, Lea & Flood,
    OOPSLA 2014) for the state i + ``_START_SEED``, its top 53 bits
    mapped to [-1, 1): a generic block, the same bits on every call and
    numpy version, with no ``numpy.random`` import.  Only uint64 arrays
    and ``np.uint64`` constants enter the arithmetic, so it wraps modulo
    2^64 without warnings under either numpy casting rule.
    """
    z = np.arange(rows * cols, dtype=np.uint64) + np.uint64(_START_SEED)
    z += np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    top = (z >> np.uint64(11)).astype(float)
    return (top * 2.0 ** -52 - 1.0).reshape(rows, cols)


def _top_eigenvectors(blocks: np.ndarray, sigma: float, k: int) \
        -> tuple[np.ndarray, np.ndarray]:
    """The k topmost eigenpairs, descending, of the block-tridiagonal H of
    ``blocks`` (the ``_block_apply`` layout), with sigma above its
    spectrum: Ritz values (k,) and Ritz vectors (n, m, k).

    Shift-invert block subspace iteration with Chebyshev acceleration
    (Rutishauser, Numer. Math. 16, 205 (1970)): a block of p = min(mn,
    max(2k, k + 8)) vectors, started from the hashed uniform block of
    ``_start_block`` (complex blocks pair its columns), is
    orthonormalized (``_orthonormal``) and H is diagonalized on its span
    (Rayleigh-Ritz).  The first step multiplies the block by
    A = (sigma I - H)^-1 (``_cr_solve``); each later one by the degree-3
    Chebyshev polynomial of A that stays within [-1, 1] on [0, c], with
    c = 1 / (sigma - theta_p) from the lowest Ritz value theta_p, which
    grows the wanted directions far faster than A^3 for the same three
    solves.  It stops when every wanted Ritz pair has
    |H x - theta x| <= ``_RESIDUAL_TOL_EV`` (or 100 eps max |H_ij|, if
    larger) and raises ``kp_bulk.NumericalError`` with the residual
    after ``_MAX_ITERATIONS`` steps.
    """
    m = blocks.shape[-1]
    n = (len(blocks) + 2) // 3
    dim = m * n
    factor = _cr_factor(sigma * np.eye(m) - blocks[:n],
                        -blocks[n:2 * n - 1])
    p = min(dim, max(2 * k, k + 8))
    tol = max(_RESIDUAL_TOL_EV,
              100.0 * np.finfo(float).eps * np.abs(blocks).max())

    def solve(v):
        return _cr_solve(factor, v.reshape(n, m, p)).reshape(dim, p)

    x = _start_block(dim, 2 * p).view(complex) \
        if np.iscomplexobj(blocks) else _start_block(dim, p)
    y = solve(x)
    for _ in range(_MAX_ITERATIONS):
        q = _orthonormal(y)
        hq = _block_apply(blocks, q.reshape(n, m, p)).reshape(dim, p)
        theta, w = np.linalg.eigh(np.conj(q.T) @ hq)
        theta, w = theta[::-1], w[:, ::-1]
        x = q @ w
        residual = np.linalg.norm(hq @ w[:, :k] - x[:, :k] * theta[:k],
                                  axis=0).max()
        if residual <= tol:
            return theta[:k], x[:, :k].reshape(n, m, k)
        scale = 2.0 * (sigma - theta[-1])
        previous, y = x, scale * solve(x) - x
        for _ in range(2):
            previous, y = y, 2.0 * (scale * solve(y) - y) - previous
    raise kp_bulk.NumericalError(
        f"shift-invert QW eigensolve did not converge in {_MAX_ITERATIONS} "
        f"iterations: residual {residual:.3g} eV exceeds {tol:.3g} eV")


def solve_qw(geometry: QwGeometry, strain: StrainState, table,
             n_states: int = 4, *, well: MaterialParams | None = None,
             barrier: MaterialParams | None = None) -> list[EnvelopeState]:
    """Topmost hole states, descending in energy (Kramers pairs).

    The hole ground state is the first returned doublet.  Phases follow
    ``kp_bulk.eigensolve``: the first significant coefficient is real and
    positive.  ``n_states`` must lie in 1 ... 6N.  Every returned pair
    (states 2j and 2j + 1) is checked to be a degenerate orthogonal
    doublet; a failed check, an eigensolve that does not converge or a
    shifted matrix that is not positive definite raises
    ``kp_bulk.NumericalError``.

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
    gamma1 < 2 gamma2) raises ``kp_bulk.NumericalError``.

    So sigma I - H is Hermitian positive definite, and odd-even block
    cyclic reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7,
    627 (1970)) factors it without pivoting: it is a block Cholesky
    factorization in another node order.  Each pivot block is checked by
    a Cholesky factorization, so a shift that is not above the spectrum
    raises instead of returning interior states.  The solver is numpy
    alone (no scipy): shift-invert block subspace iteration with
    Chebyshev acceleration and Rayleigh-Ritz on H (``_top_eigenvectors``)
    runs until every wanted Ritz pair has |H x - theta x| <= 1e-11 eV
    (or 100 round-offs of the largest entry of H on very fine grids),
    for at most 200 Rayleigh-Ritz steps.

    Without e_xz and e_yz (every uniaxial or biaxial stress along the
    cubic axes, also with e_xy), S vanishes at k_parallel = 0, and no
    entry of H couples the bands {HH+3/2, LH-1/2, SO-1/2} to their
    Kramers partners {LH+1/2, HH-3/2, SO+1/2} (Broido & Sham, PRB 31, 888
    (1985)).  When every such entry of the well's and the barrier's k = 0
    bulk block and kz^2 matrix is exactly zero (``kp_bulk._kramers_block``,
    the rule the bulk doublets use, on the materials that have a node on
    the grid), so is every such entry of the assembled blocks, which are
    sums of them; then only the 3N blocks of the first set are assembled,
    with the bits of the restriction of the 6N ones, and solved for one
    vector per Kramers pair, ceil(n_states / 2) of them.  The block is
    real unless e_xy makes R complex.  Each Ritz pair (theta, psi) of the
    block then gives the pair (psi, T psi) at energy theta, with T psi =
    U conj(psi) node by node (T commutes with H at k_parallel = 0): psi
    lives in the first set of bands and T psi in the second, so the two
    are exactly degenerate and orthogonal, and they are returned as they
    are.  Only if the materials' coupling entries cancelled exactly in
    the sums would the assembled blocks split where the materials do not;
    such a well takes the 6N path, which is valid for every well.

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
    if not 1 <= n_states <= dim:
        raise ValueError(f"n_states must lie in 1 ... {dim} for "
                         f"{n} grid points, got {n_states}")

    onsite, a, node = _node_blocks(geometry, strain, table, well, barrier)
    if np.linalg.eigvalsh(a).max() > 1e-12 * np.abs(a).max():
        raise kp_bulk.NumericalError(
            "the kz^2 matrix of the well or barrier material is not "
            "negative semidefinite (e.g. gamma1 < 2 gamma2), so no shift "
            "above the QW spectrum is known")
    sigma = np.linalg.eigvalsh(onsite).max() + _SHIFT_MARGIN_EV

    kept = _kept_blocks(onsite, a, node)
    k = (n_states + 1) // 2
    if kept is None:
        energies, vectors = _top_eigenvectors(_assemble(onsite, a, node),
                                              sigma, 2 * k)
    else:
        theta, psi = _top_eigenvectors(kept, sigma, k)
        # (node, vector, band, pair member) -> (node, band, 2 k states)
        doublets = kp_bulk._kramers_pairs(np.swapaxes(psi, 1, 2))
        energies = np.repeat(theta, 2)
        vectors = doublets.transpose(0, 2, 1, 3).reshape(n, 6, 2 * k)
    energies, vectors = energies[:n_states], vectors[..., :n_states]
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
    return project_hgs(doublet, axis)


def qw_mixing_vs_strain(geometries, stresses_gpa, axes, table, *,
                        threads: int = 1) -> list[np.ndarray]:
    """Mixing curves for several wells under uniaxial stress.

    Returns one (n_stress, 1 + 3 len(axes)) array per geometry, in the
    order of ``geometries``, with rows (strain_xx, p_hh, p_lh, p_so for
    each axis in ``axes``); every axis projects the same solved doublet.
    The well is GaAs and the strain is computed from its stiffness.
    """
    return [rows for rows, _ in _mixing_sweep(geometries, stresses_gpa, axes,
                                              table, threads)]


def _mixing_sweep(geometries, stresses_gpa, axes, table,
                  threads: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """``qw_mixing_vs_strain`` with the hole ground-state energy (eV) of
    every sweep point: one (rows, energies) pair per geometry."""
    _, strains = uniaxial_sweep(stresses_gpa, table["GaAs"])
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
        sweeps.append((np.array([row for row, _ in points]),
                       np.array([energy for _, energy in points])))
    return sweeps


def emulated_transition_energies(offsets: EmulationOffsets, strains,
                                 table) -> np.ndarray:
    """``transition_energy`` of ``offsets`` at Voigt strains (..., 6), from
    one batched bulk eigensolve: an array of the batch shape (eV)."""
    gaas = table["GaAs"]
    voigt = np.asarray(strains, dtype=float)
    cb = gaas.cb_edge + gaas.ac * (voigt[..., 0] + voigt[..., 1]
                                   + voigt[..., 2])
    energies, _ = kp_bulk._doublet_stack(voigt, gaas,
                                         hh_shift=-offsets.hh_shift,
                                         lh_shift=-offsets.lh_shift)
    return cb + offsets.cb_shift - energies[..., 0]


def transition_energy(target, strain: StrainState, table) -> float:
    """CB-to-hole-ground-state transition energy (eV), no excitonics.

    ``target`` is either a QwGeometry (the hole state is solved in the
    well and the CB energy is the hydrostatically shifted well edge) or
    an EmulationOffsets (bulk hole state with the fixed confinement
    shifts applied, CB additionally raised by cb_shift; see
    ``emulated_transition_energies`` for a whole sweep).
    """
    if isinstance(target, EmulationOffsets):
        return float(emulated_transition_energies(target, strain.as_voigt(),
                                                  table))
    if isinstance(target, QwGeometry):
        gaas = table["GaAs"]
        states = solve_qw(target, strain, table, n_states=2)
        return gaas.cb_edge + gaas.ac * strain.trace() - states[0].energy
    raise TypeError("target must be a QwGeometry or EmulationOffsets")
