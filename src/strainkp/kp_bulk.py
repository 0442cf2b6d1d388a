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
    SO-1/2).
    """

    coefficients: np.ndarray
    energy: float | None = None

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=complex)
        if coeff.ndim != 1 or coeff.size < 2:
            raise ValueError(f"unsupported spinor shape {coeff.shape}")
        norm = np.linalg.norm(coeff)
        if abs(norm - 1.0) > 1e-10:
            raise NumericalError(f"spinor norm {norm} deviates from 1")
        coeff.flags.writeable = False
        object.__setattr__(self, "coefficients", coeff)

    def vb_part(self) -> np.ndarray:
        """6-component VB restriction of the coefficient vector."""
        c = self.coefficients
        if c.shape == (8,):
            return c[VB_SLICE]
        if c.shape == (6,):
            return c
        raise ValueError("state has no 6-band VB representation")


def _kvec(k) -> np.ndarray:
    if isinstance(k, Wavevector):
        return k.as_array()
    arr = np.asarray(k, dtype=float)
    if arr.shape != (3,):
        raise ValueError("wavevector must have three components")
    return arr


def _scalars(k, voigt, p: MaterialParams):
    """Hole-picture scalar entries (C is returned in the electron picture)
    for Voigt strains of shape (..., 6); each entry has the batch shape."""
    kx, ky, kz = _kvec(k)
    k2 = kx * kx + ky * ky + kz * kz
    exx, eyy, ezz, eyz, exz, exy = np.moveaxis(voigt, -1, 0)
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
    upper = np.array([
        pp + qq + hh_shift, pp - qq + lh_shift, pp - qq + lh_shift,
        pp + qq + hh_shift, pp + dso, pp + dso,
        -ss, rr, -ss / _SQ2, _SQ2 * rr,
        rr, -_SQ2 * qq, _SQ32 * ss,
        ss, _SQ32 * sc, _SQ2 * qq,
        -_SQ2 * rc, -sc / _SQ2], dtype=complex)
    upper = np.moveaxis(upper, 0, -1)
    h = np.zeros(upper.shape[:-1] + (6, 6), dtype=complex)
    h[..., _COLS, _ROWS] = np.conj(upper)
    h[..., _ROWS, _COLS] = upper
    return h


def h6_vb(k, strain: StrainState, p: MaterialParams, *,
          hh_shift: float = 0.0, lh_shift: float = 0.0) -> np.ndarray:
    """Electron-picture 6x6 VB block.

    ``hh_shift``/``lh_shift`` add to the electron-picture HH and LH
    diagonal entries (used to emulate confinement energies).
    """
    return -_vb_hole(k, strain.as_voigt(), p, -hh_shift, -lh_shift)


def build_h8(k, strain: StrainState, p: MaterialParams) -> np.ndarray:
    """Full 8x8 Hamiltonian (eV), CB block decoupled from the VB block."""
    c_elec = _scalars(k, strain.as_voigt(), p)[0]
    h = np.zeros((8, 8), dtype=complex)
    h[0, 0] = h[1, 1] = c_elec
    h[VB_SLICE, VB_SLICE] = h6_vb(k, strain, p)
    return h


def h4_topmost(k, strain: StrainState, p: MaterialParams) -> np.ndarray:
    """HH/LH 4x4 block (rows/cols 2..5 of the 8x8), electron picture."""
    return h6_vb(k, strain, p)[:4, :4]


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Unit columns of (..., m, j) with the first coefficient above 1e-10
    of each (a unit column always has one) made real and positive, so
    degenerate subspaces come out reproducibly for identical inputs."""
    pivot = np.argmax(np.abs(vectors) > 1e-10, axis=-2)[..., None, :]
    lead = np.take_along_axis(vectors, pivot, axis=-2)
    return vectors / (lead / np.abs(lead))


def _eigh_descending(h: np.ndarray, hermitian_atol: float = 1e-12) \
        -> tuple[np.ndarray, np.ndarray]:
    """Energies (..., m), descending, and phase-fixed unit eigenvectors
    (..., m, m), one per column, of Hermitian matrices (..., m, m).

    Each matrix passes the checks of ``eigensolve`` and ``SpinorState``;
    the first one (in stack order) that fails raises their error.
    """
    h = np.asarray(h, dtype=complex)
    h_dag = np.conj(np.swapaxes(h, -1, -2))
    resid = np.abs(h - h_dag).max(axis=(-2, -1)).ravel()
    bad = np.flatnonzero(resid > hermitian_atol)
    if bad.size:
        raise NonHermitianError(
            f"matrix is not Hermitian: residual {resid[bad[0]]:g} exceeds "
            f"{hermitian_atol:g}")
    energies, vectors = np.linalg.eigh((h + h_dag) / 2.0)
    vectors = _fix_phases(vectors[..., ::-1])
    drift = np.abs(np.linalg.norm(vectors, axis=-2) - 1.0) > 1e-10
    if drift.any():
        columns = np.moveaxis(vectors, -1, -2).reshape(-1, h.shape[-1])
        SpinorState(columns[np.flatnonzero(drift)[0]])
    return energies[..., ::-1], vectors


def eigensolve(h: np.ndarray, *, hermitian_atol: float = 1e-12) \
        -> list[SpinorState]:
    """Eigenpairs of a Hermitian matrix, energies descending.

    The phase of each eigenvector is fixed by making its first
    significant coefficient real and positive, so degenerate subspaces
    come out reproducibly for identical inputs.

    Raises NonHermitianError if ``max|h - h^dagger|`` exceeds the
    tolerance.
    """
    energies, vectors = _eigh_descending(h, hermitian_atol)
    return [SpinorState(vectors[:, i], energy=float(energies[i]))
            for i in range(energies.size)]


def _doublet_stack(voigt, p: MaterialParams, k=(0, 0, 0), *,
                   hh_shift: float = 0.0, lh_shift: float = 0.0) \
        -> tuple[np.ndarray, np.ndarray]:
    """Topmost VB doublets of Voigt strains (..., 6) from one batched
    eigensolve: energies (..., 2) and 8-component states (..., 8, 2).
    Every doublet passes the checks of ``eigensolve`` and
    ``validate_doublet``."""
    energies, vectors = _eigh_descending(
        -_vb_hole(k, voigt, p, -hh_shift, -lh_shift))
    states = _full8(vectors[..., :2])
    _check_doublets(energies[..., :2], states)
    return energies[..., :2], states


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
    degenerate and orthogonal; the first failing pair raises."""
    gap = np.abs(energies[..., 0] - energies[..., 1]).ravel()
    gram = np.conj(np.swapaxes(states, -1, -2)) @ states
    overlap = np.abs(gram[..., 0, 1]).ravel()
    bad = np.flatnonzero((gap > degeneracy_atol) | (overlap > 1e-8))
    if bad.size and gap[bad[0]] > degeneracy_atol:
        raise NumericalError(
            f"states are not degenerate: |dE| = {gap[bad[0]]:g} eV exceeds "
            f"{degeneracy_atol:g} eV")
    if bad.size:
        raise NumericalError(f"doublet states are not orthogonal "
                             f"(|overlap| = {overlap[bad[0]]:g})")


def validate_doublet(a: SpinorState, b: SpinorState,
                     *, degeneracy_atol: float = 1e-6) -> np.ndarray:
    """Check that two states form a degenerate orthonormal pair; returns
    their coefficients as the columns of an (m, 2) array."""
    if a.energy is None or b.energy is None:
        raise ValueError("doublet states need energies attached")
    if a.coefficients.shape != b.coefficients.shape:
        raise ValueError("doublet states live in different bases")
    psi = np.array([a.coefficients, b.coefficients]).T
    _check_doublets(np.array([a.energy, b.energy]), psi,
                    degeneracy_atol=degeneracy_atol)
    return psi


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


def dispersion(path, strain: StrainState, p: MaterialParams) -> np.ndarray:
    """Band energies along a wavevector path, shape (n_k, 8).

    Row i holds the eight eigenvalues of ``build_h8`` at the i-th k-point
    in descending order; near k = 0 columns 0-1 are the CB pair and
    columns 2-7 the VB states from the top down.  Bands are sorted, not
    tracked through crossings: inside a Kramers pair no overlap
    criterion could tell them apart.
    """
    h = np.array([build_h8(k, strain, p) for k in path]).reshape(-1, 8, 8)
    return _eigh_descending(h)[0]
