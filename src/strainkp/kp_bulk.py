"""8x8 (2 CB + 6 VB) k.p Hamiltonian with strain for zincblende crystals.

Basis ordering, fixed everywhere in this package::

    0  CB +1/2   iS(up)
    1  CB -1/2   iS(dn)
    2  HH +3/2   -(X + iY)(up)/sqrt(2)
    3  LH +1/2   -[(X + iY)(dn) - 2 Z(up)]/sqrt(6)
    4  LH -1/2   +[(X - iY)(up) + 2 Z(dn)]/sqrt(6)
    5  HH -3/2   +(X - iY)(dn)/sqrt(2)
    6  SO +1/2   +[(X + iY)(dn) + Z(up)]/sqrt(3)
    7  SO -1/2   +[(X - iY)(up) - Z(dn)]/sqrt(3)

Everything is stored in the electron-energy picture: the topmost valence
state is the largest eigenvalue among the six VB states, the CB block is
diagonal with the hydrostatic shift ``ac * tr(strain)``, and CB-VB
coupling is neglected, so the CB block is exactly decoupled.

The valence block is the standard Luttinger-Kohn + Bir-Pikus 6x6 written
in the hole picture and negated.  Scalar ingredients, with ``K`` the
free-electron kinetic prefactor ``HBAR2_OVER_2M0``::

    P = Ev(hole) + K g1 k^2      - av tr(e)
    Q = K g2 (k^2 - 3 kz^2)      - (b/2)(e_xx + e_yy - 2 e_zz)
    R = K sqrt(3)[-g2(kx^2-ky^2) + 2i g3 kx ky]
        + (sqrt(3) b / 2)(e_xx - e_yy) - i d e_xy
    S = 2 sqrt(3) K g3 (kx - i ky) kz - d (e_xz - i e_yz)

with the VB edge entering through ``Ev(hole) = -(ev_av + delta/3)``.
The relative signs between the k-quadratic and strain parts of R and S
are fixed by cubic covariance (the spectrum must be invariant under any
simultaneous cubic rotation of k and the strain tensor) and reproduce
the [111] hole masses 1/(g1 -+ 2 g3).

When S vanishes (no e_xz or e_yz, and k along z or in the xy plane: every
uniaxial or biaxial stress along the cubic axes at k = 0, e_xy included)
no entry couples {HH+3/2, LH-1/2, SO-1/2} to their Kramers partners
{LH+1/2, HH-3/2, SO+1/2} (Broido & Sham, PRB 31, 888 (1985)).
``_kramers_block`` is the one rule that detects this split, for the bulk
6x6 and for the node blocks of the well alike: it reads the assembled
matrices, never an option.  The doublet sweep then diagonalizes the 3x3
block of the first set, real unless e_xy or kx ky makes R complex, and
takes each partner by time reversal, T psi = U conj(psi) with the one
``_TIME_REVERSAL`` U, an exact signed permutation; any other matrix takes
the full 6x6 ``eigh``.  The sweep decides this per matrix, so every
doublet has the same bits in any batch as alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elasticity import StrainState
from .materials import MaterialParams

__all__ = [
    "BLOCH_LABELS",
    "HBAR2_OVER_2M0",
    "HH_INDICES",
    "LH_INDICES",
    "NonHermitianError",
    "NumericalError",
    "ORBITAL_SPIN_LABELS",
    "SO_INDICES",
    "SpinorState",
    "Wavevector",
    "bloch_orbital_matrix",
    "build_h8",
    "dispersion",
    "eigensolve",
    "h4_topmost",
    "h6_vb",
    "top_valence_doublet",
    "validate_doublet",
]

HBAR2_OVER_2M0 = 0.0380998  # eV nm^2; single source of unit truth

BLOCH_LABELS = ("CB+1/2", "CB-1/2", "HH+3/2", "LH+1/2",
                "LH-1/2", "HH-3/2", "SO+1/2", "SO-1/2")
ORBITAL_SPIN_LABELS = ("S_up", "X_up", "Y_up", "Z_up",
                       "S_dn", "X_dn", "Y_dn", "Z_dn")

VB_SLICE = slice(2, 8)
HH_INDICES = (2, 5)
LH_INDICES = (3, 4)
SO_INDICES = (6, 7)

_SQ2 = math.sqrt(2.0)
_SQ3 = math.sqrt(3.0)
_SQ32 = math.sqrt(1.5)
# (row, column) of the diagonal and the nonzero upper entries of _vb_hole
_ROWS, _COLS = np.array([(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5),
                         (0, 1), (0, 2), (0, 4), (0, 5), (1, 3), (1, 4),
                         (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5)]).T
# the same entries, and the mirror images of the 12 off the diagonal, as
# indices into a flat 6x6
_UPPER_FLAT, _LOWER_FLAT = _ROWS * 6 + _COLS, (_COLS * 6 + _ROWS)[6:]
# VB bands {HH+3/2, LH-1/2, SO-1/2} kept by the Kramers split, and their
# partners {LH+1/2, HH-3/2, SO+1/2}: at k = 0 only S couples the two sets
_KEPT_BANDS = np.array([0, 2, 5])
_PARTNER_BANDS = np.array([1, 3, 4])
# the 18 entries of a 6x6 that couple the two sets, in either direction
_COUPLINGS = np.zeros((6, 6), dtype=bool)
_COUPLINGS[_KEPT_BANDS[:, None], _PARTNER_BANDS] = True
_COUPLINGS |= _COUPLINGS.T
# largest max|h - h^dagger| (eV) a matrix may have and still be solved
_HERMITIAN_ATOL = 1e-12


class NumericalError(ValueError):
    """A computed result failed a numerical check (Hermiticity, doublet
    degeneracy or orthogonality, norm drift)."""


class NonHermitianError(NumericalError):
    """Input matrix is not Hermitian within the requested tolerance."""


@dataclass(frozen=True)
class Wavevector:
    """Wavevector in 1/nm."""

    kx: float = 0.0
    ky: float = 0.0
    kz: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.kx, self.ky, self.kz])


@dataclass(frozen=True)
class SpinorState:
    """Complex coefficient vector over the Bloch basis, with its energy.

    ``coefficients`` may have 8 entries (full basis) or 6 (VB-only
    restriction in basis order HH+3/2, LH+1/2, LH-1/2, HH-3/2, SO+1/2,
    SO-1/2).  The state keeps a read-only copy of the coefficients, so
    no later write to the caller's array changes it.
    """

    coefficients: np.ndarray
    energy: float | None = None

    def __post_init__(self):
        coeff = np.array(self.coefficients, dtype=complex)
        if coeff.ndim != 1 or coeff.size < 2:
            raise ValueError(f"unsupported spinor shape {coeff.shape}")
        # np.linalg.norm of a complex vector, without its wrapper
        norm = math.sqrt(coeff.real @ coeff.real + coeff.imag @ coeff.imag)
        if abs(norm - 1.0) > 1e-10:
            raise NumericalError(f"spinor norm {norm} deviates from 1")
        coeff.flags.writeable = False
        object.__setattr__(self, "coefficients", coeff)


def _kvec(k) -> np.ndarray:
    """A Wavevector, or wavevectors of shape (..., 3), as an array."""
    if isinstance(k, Wavevector):
        return k.as_array()
    arr = np.asarray(k, dtype=float)
    if arr.shape[-1:] != (3,):
        raise ValueError("wavevector must have three components")
    return arr


def _scalars(k, voigt, p: MaterialParams):
    """Hole-picture scalar entries (C is returned in the electron picture)
    for wavevectors (..., 3) and Voigt strains (..., 6); each entry has
    the broadcast batch shape."""
    k = _kvec(k)
    # the components as numpy scalars at one point, whose arithmetic is
    # several times faster than that of 0-d arrays
    kx, ky, kz = k.transpose(-1, *range(k.ndim - 1))
    k2 = kx * kx + ky * ky + kz * kz
    exx, eyy, ezz, eyz, exz, exy = voigt.transpose(-1, *range(voigt.ndim - 1))
    tr = exx + eyy + ezz
    kin = HBAR2_OVER_2M0

    c_elec = p.vb_edge + p.eg + kin * k2 / p.me + p.ac * tr
    pp = -p.vb_edge + kin * p.gamma1 * k2 - p.av * tr
    qq = kin * p.gamma2 * (k2 - 3.0 * kz * kz) \
        - 0.5 * p.b * (exx + eyy - 2.0 * ezz)
    rr = kin * _SQ3 * (-p.gamma2 * (kx * kx - ky * ky)
                       + 2.0j * p.gamma3 * kx * ky) \
        + 0.5 * _SQ3 * p.b * (exx - eyy) - 1.0j * p.d * exy
    ss = 2.0 * _SQ3 * kin * p.gamma3 * (kx - 1.0j * ky) * kz \
        - p.d * (exz - 1.0j * eyz)
    return c_elec, pp, qq, rr, ss


def _vb_hole(k, voigt, p, hh_shift=0.0, lh_shift=0.0) -> np.ndarray:
    """Hole-picture VB matrices of shape (..., 6, 6) for Voigt strains of
    shape (..., 6); shifts are hole-picture diagonal adds."""
    _, pp, qq, rr, ss = _scalars(k, voigt, p)
    sc, rc = np.conj(ss), np.conj(rr)
    dso = p.delta
    upper = (
        pp + qq + hh_shift, pp - qq + lh_shift, pp - qq + lh_shift,
        pp + qq + hh_shift, pp + dso, pp + dso,
        -ss, rr, -ss / _SQ2, _SQ2 * rr,
        rr, -_SQ2 * qq, _SQ32 * ss,
        ss, _SQ32 * sc, _SQ2 * qq,
        -_SQ2 * rc, -sc / _SQ2)
    if np.ndim(pp) == 0:
        # one point: two scatters instead of 36 scalar writes, with the
        # same bits (np.conj of a real entry keeps a +0 imaginary part)
        h = np.zeros(36, dtype=complex)
        h[_UPPER_FLAT] = upper
        h[_LOWER_FLAT] = [np.conj(value) for value in upper[6:]]
        return h.reshape(6, 6)
    # a stack: one strided write per entry, a third of the time of
    # stacking the entries and scattering them with fancy indices, for a
    # 1001-point sweep
    h = np.zeros(np.shape(pp) + (6, 6), dtype=complex)
    for row, col, value in zip(_ROWS.tolist(), _COLS.tolist(), upper):
        h[..., col, row] = np.conj(value)
        h[..., row, col] = value
    return h


def h6_vb(k, strain: StrainState, p: MaterialParams, *,
          hh_shift: float = 0.0, lh_shift: float = 0.0) -> np.ndarray:
    """Electron-picture 6x6 VB block.

    ``hh_shift``/``lh_shift`` add to the electron-picture HH and LH
    diagonal entries (used to emulate confinement energies).
    """
    return -_vb_hole(k, strain.as_voigt(), p, -hh_shift, -lh_shift)


def build_h8(k, strain: StrainState, p: MaterialParams) -> np.ndarray:
    """Full 8x8 Hamiltonian (eV), CB block decoupled from the VB block;
    a stack (..., 8, 8) for wavevectors of shape (..., 3)."""
    k = _kvec(k)
    h = np.zeros(k.shape[:-1] + (8, 8), dtype=complex)
    h[..., 0, 0] = h[..., 1, 1] = _scalars(k, strain.as_voigt(), p)[0]
    h[..., VB_SLICE, VB_SLICE] = h6_vb(k, strain, p)
    return h


def h4_topmost(k, strain: StrainState, p: MaterialParams) -> np.ndarray:
    """HH/LH 4x4 block (rows/cols 2..5 of the 8x8), electron picture."""
    return h6_vb(k, strain, p)[..., :4, :4]


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Unit columns of (..., m, j) with the first coefficient above 1e-10
    of each (a unit column always has one) made real and positive, so
    degenerate subspaces come out reproducibly for identical inputs."""
    pivot = np.argmax(np.abs(vectors) > 1e-10, axis=-2)
    # the pivot entries by plain integer indexing over the stack: the
    # gather of np.take_along_axis, without its Python-level index setup
    stack = vectors.reshape((-1,) + vectors.shape[-2:])
    rows = np.arange(len(stack))[:, None]
    columns = np.arange(vectors.shape[-1])
    lead = stack[rows, pivot.reshape(rows.size, columns.size), columns]
    lead = lead.reshape(pivot.shape)[..., None, :]
    return vectors / (lead / np.abs(lead))


def _check_hermitian(h: np.ndarray) -> None:
    """Raise NonHermitianError for the first matrix of (..., m, m), in
    stack order, with ``max|h - h^dagger|`` above ``_HERMITIAN_ATOL``."""
    resid = np.abs(h - _herm(h)).max(axis=(-2, -1))
    bad = resid > _HERMITIAN_ATOL
    if bad.any():
        raise NonHermitianError(
            f"matrix is not Hermitian: residual "
            f"{resid.ravel()[np.flatnonzero(bad)[0]]:g} exceeds "
            f"{_HERMITIAN_ATOL:g}")


def _herm(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def _check_norms(vectors: np.ndarray) -> None:
    """Raise SpinorState's error for the first column of (..., m, j) whose
    norm drifts from 1 by more than 1e-10."""
    squares = (np.conj(vectors) * vectors).real.sum(axis=-2)
    drift = np.abs(np.sqrt(squares) - 1.0) > 1e-10
    if drift.any():
        columns = np.moveaxis(vectors, -1, -2).reshape(-1, vectors.shape[-2])
        SpinorState(columns[np.flatnonzero(drift)[0]])


def _eigh_descending(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energies (..., m), descending, and phase-fixed unit eigenvectors
    (..., m, m), one per column, of Hermitian matrices (..., m, m).

    Each matrix passes the checks of ``eigensolve`` and ``SpinorState``;
    the first one (in stack order) that fails raises their error.
    """
    h = np.asarray(h, dtype=complex)
    _check_hermitian(h)
    energies, vectors = np.linalg.eigh((h + _herm(h)) / 2.0)
    vectors = _fix_phases(vectors[..., ::-1])
    _check_norms(vectors)
    return energies[..., ::-1], vectors


def eigensolve(h: np.ndarray) -> list[SpinorState]:
    """Eigenpairs of a Hermitian matrix, energies descending.

    The phase of each eigenvector is fixed by making its first
    significant coefficient real and positive, so degenerate subspaces
    come out reproducibly for identical inputs.

    Raises NonHermitianError if ``max|h - h^dagger|`` exceeds 1e-12 eV.
    """
    energies, vectors = _eigh_descending(h)
    return [SpinorState(vectors[:, i], energy=float(energies[i]))
            for i in range(energies.size)]


def _kramers_block(h: np.ndarray) -> np.ndarray | None:
    """The (..., 3, 3) restriction of VB matrices (..., 6, 6) to
    ``_KEPT_BANDS`` (real when its imaginary part is exactly zero) if no
    entry of any matrix couples those bands to ``_PARTNER_BANDS``, in
    either direction, else None.

    A stack that splits is block diagonal in the two sets; when it also
    commutes with time reversal, as the bulk matrices (even in k) and the
    well at k_parallel = 0 do, the partner block holds the time-reversed
    states of the kept one, with the same energies.
    """
    if h[..., _COUPLINGS].any():
        return None
    kept = h[..., _KEPT_BANDS[:, None], _KEPT_BANDS]
    return kept if kept.imag.any() else kept.real


def _kramers_kinds(h: np.ndarray) -> np.ndarray:
    """``_kramers_block``'s decision for each matrix of (..., 6, 6) on
    its own: 2 if it does not split, else 1 if its kept block is complex
    and 0 if it is real."""
    kept = h[..., _KEPT_BANDS[:, None], _KEPT_BANDS]
    return np.where(h[..., _COUPLINGS].any(axis=-1), 2,
                    kept.imag.any(axis=(-2, -1)))


def _kramers_pairs(kept: np.ndarray) -> np.ndarray:
    """Doublets (psi, T psi) of shape (..., 6, 2) from coefficients
    (..., 3) over ``_KEPT_BANDS``: psi holds them on the kept bands, and
    its partner T psi = U conj(psi) lives on the partner bands."""
    pairs = np.zeros(kept.shape[:-1] + (6, 2), dtype=complex)
    pairs[..., _KEPT_BANDS, 0] = kept
    pairs[..., 1] = pairs[..., 0].conj() @ _TIME_REVERSAL.T
    return pairs


def _doublet_stack(voigt, p: MaterialParams, k=(0, 0, 0), *,
                   hh_shift: float = 0.0, lh_shift: float = 0.0) \
        -> tuple[np.ndarray, np.ndarray]:
    """Topmost VB doublets of Voigt strains (..., 6) from batched
    eigensolves: energies (..., 2) and 8-component states (..., 8, 2).

    Each matrix takes the path it would take alone (``_kramers_kinds``),
    so a doublet has the same bits in any batch, and alone: a stack that
    mixes paths is solved as one stack per path.  A stack that splits
    (``_kramers_block``) is solved on its kept 3x3 blocks, and each
    doublet is the top eigenvector psi and its partner T psi; any other
    stack takes the 6x6 ``eigh``.  Either way every matrix passes the
    Hermitian check of ``eigensolve``, and every doublet the norm check
    of ``SpinorState`` and the checks of ``validate_doublet``.
    """
    h = -_vb_hole(k, voigt, p, -hh_shift, -lh_shift)
    kept = _kramers_block(h)
    # only a stack of real kept blocks is one path for sure
    if h.ndim > 2 and (kept is None or np.iscomplexobj(kept)):
        kinds = _kramers_kinds(h)
        # not np.unique, which would import numpy.ma (about 1.5 MB)
        picks = [pick for pick in (kinds == path for path in range(3))
                 if pick.any()]
        if len(picks) > 1:
            energies = np.empty(kinds.shape + (2,))
            states = np.empty(kinds.shape + (8, 2), dtype=complex)
            for pick in picks:
                sub = h[pick]
                energies[pick], states[pick] = _top_doublets(
                    sub, _kramers_block(sub))
            return energies, states
    return _top_doublets(h, kept)


def _top_doublets(h: np.ndarray, kept: np.ndarray | None) \
        -> tuple[np.ndarray, np.ndarray]:
    """``_doublet_stack`` of the VB matrices h (..., 6, 6), one path for
    all: the 3x3 path on their ``_kramers_block`` ``kept``, or the 6x6
    ``eigh`` if it is None."""
    if kept is None:
        energies, vectors = _eigh_descending(h)
        energies, vectors = energies[..., :2], vectors[..., :2]
    else:
        _check_hermitian(h)
        top, psi = np.linalg.eigh((kept + _herm(kept)) / 2.0)
        vectors = _fix_phases(_kramers_pairs(psi[..., -1]))
        _check_norms(vectors)
        energies = np.repeat(top[..., -1:], 2, axis=-1)
    states = _full8(vectors)
    _check_doublets(energies, states)
    return energies, states


def top_valence_doublet(strain: StrainState, p: MaterialParams, k=(0, 0, 0),
                        *, hh_shift: float = 0.0, lh_shift: float = 0.0) \
        -> tuple[SpinorState, SpinorState]:
    """Topmost (Kramers-degenerate) VB doublet, as 8-component states."""
    energies, states = _doublet_stack(strain.as_voigt(), p, k,
                                      hh_shift=hh_shift, lh_shift=lh_shift)
    return tuple(SpinorState(c, energy=float(e))
                 for c, e in zip(states.T, energies))


def _full8(states: np.ndarray) -> np.ndarray:
    """Coefficients (..., 6 or 8, j) padded to the full 8-band basis."""
    if states.shape[-2] == 8:
        return states
    if states.shape[-2] == 6:
        full = np.zeros(states.shape[:-2] + (8, states.shape[-1]),
                        dtype=complex)
        full[..., VB_SLICE, :] = states
        return full
    raise ValueError("projection needs 6- or 8-component states")


def _check_doublets(energies: np.ndarray, states: np.ndarray,
                    *, degeneracy_atol: float = 1e-6) -> None:
    """Check that pairs, energies (..., 2) and states (..., m, 2), are
    degenerate and orthogonal; the first failing pair raises, with its
    gap reported before its overlap."""
    gap = np.abs(energies[..., 0] - energies[..., 1])
    overlap = np.abs((np.conj(states[..., 0]) * states[..., 1]).sum(axis=-1))
    bad = (gap > degeneracy_atol) | (overlap > 1e-8)
    if not bad.any():
        return
    first = np.flatnonzero(bad)[0]
    gap, overlap = gap.ravel()[first], overlap.ravel()[first]
    if gap > degeneracy_atol:
        raise NumericalError(
            f"states are not degenerate: |dE| = {gap:g} eV exceeds "
            f"{degeneracy_atol:g} eV")
    raise NumericalError(f"doublet states are not orthogonal "
                         f"(|overlap| = {overlap:g})")


def validate_doublet(a, b, *, degeneracy_atol: float = 1e-6) -> np.ndarray:
    """Check that two states, ``SpinorState`` coefficients (m,) or well
    envelopes (6, N), form a degenerate orthonormal pair; returns their
    coefficients side by side, (m, 2) or (6, 2N)."""
    if a.energy is None or b.energy is None:
        raise ValueError("doublet states need energies attached")
    if a.coefficients.shape != b.coefficients.shape:
        raise ValueError("doublet states live in different bases")
    pair = np.array([a.coefficients, b.coefficients])
    _check_doublets(np.array([a.energy, b.energy]), pair.reshape(2, -1).T,
                    degeneracy_atol=degeneracy_atol)
    # (2, m) -> (m, 2), or (2, 6, N) -> (6, 2N) as np.hstack joins them
    return pair.swapaxes(0, 1).reshape(pair.shape[1], -1)


def bloch_orbital_matrix() -> np.ndarray:
    """Unitary mapping Bloch coefficients to (S,X,Y,Z) x (up,dn) products.

    Columns follow BLOCH_LABELS, rows follow ORBITAL_SPIN_LABELS; the
    product coefficients of a state are ``U @ state.coefficients``.
    """
    s2, s3, s6 = 1 / _SQ2, 1 / _SQ3, 1 / math.sqrt(6.0)
    u = np.zeros((8, 8), dtype=complex)
    u[0, 0] = 1j                                   # CB+1/2 = iS up
    u[4, 1] = 1j                                   # CB-1/2 = iS dn
    u[1, 2], u[2, 2] = -s2, -1j * s2               # HH+3/2
    u[5, 3], u[6, 3], u[3, 3] = -s6, -1j * s6, 2 * s6   # LH+1/2
    u[1, 4], u[2, 4], u[7, 4] = s6, -1j * s6, 2 * s6    # LH-1/2
    u[5, 5], u[6, 5] = s2, -1j * s2                # HH-3/2
    u[5, 6], u[6, 6], u[3, 6] = s3, 1j * s3, s3    # SO+1/2
    u[1, 7], u[2, 7], u[7, 7] = s3, -1j * s3, -s3  # SO-1/2
    return u


# the package's one Bloch-orbital table, and time reversal T psi = U conj(psi)
# on the six VB coefficients: i sigma_y K on the table's spin (real orbitals).
# U is a real signed permutation; the product is off from it by round-off
# (entries 1 +- 2.2e-16, cross terms 2.8e-17), so it is rounded to the
# exact matrix (+ 0.0 clears the negative zeros), and a partner
# T psi then has the same bits whatever stack psi is solved in.
_BLOCH_ORBITALS = bloch_orbital_matrix()
_TIME_REVERSAL = (np.conj(_BLOCH_ORBITALS.T)
                  @ np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(4))
                  @ np.conj(_BLOCH_ORBITALS))[VB_SLICE, VB_SLICE]
_TIME_REVERSAL = np.round(_TIME_REVERSAL.real) + 0.0
_BLOCH_ORBITALS.flags.writeable = False
_TIME_REVERSAL.flags.writeable = False


def dispersion(path, strain: StrainState, p: MaterialParams) -> np.ndarray:
    """Band energies along a wavevector path, shape (n_k, 8).

    Row i holds the eight eigenvalues of ``build_h8`` at the i-th k-point
    in descending order; near k = 0 columns 0-1 are the CB pair and
    columns 2-7 the VB states from the top down.  Bands are sorted, not
    tracked through crossings: inside a Kramers pair no overlap
    criterion could tell them apart.
    """
    k = np.array([_kvec(q) for q in path]).reshape(-1, 3)
    return _eigh_descending(build_h8(k, strain, p))[0]
