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
coupling is neglected, so the CB block is exactly decoupled: a hole state
is its six VB coefficients (rows 2-7), as solved, and only ``build_h8``,
``eigensolve`` of it and ``dispersion`` carry the CB, for its edge.

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
``_kramers_solve`` is the one routine that makes this decision and
builds the pairs, for the bulk doublets and the well of ``qw`` alike: it
reads the matrices the operator is built from, never an option.  An
operator that splits is solved on the first set alone, one vector per
pair, and each partner is taken by time reversal, T psi = U conj(psi)
with the one ``_TIME_REVERSAL`` U, an exact signed permutation; any
other is solved on all six bands.  Either way a restricted matrix whose
imaginary part is exactly zero is solved real.  The doublet sweep
decides once per stack, which is the decision of each of its matrices
alone for every uniaxial sweep (see ``_doublet_stack``), so every
doublet has the same bits in any batch as alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._doublet import Doublet, NumericalError, _check_doublets, _first_failure
from .elasticity import StrainState
from .materials import MaterialParams

__all__ = [
    "BLOCH_LABELS",
    "Doublet",
    "HBAR2_OVER_2M0",
    "NonHermitianError",
    "NumericalError",
    "ORBITAL_SPIN_LABELS",
    "SpinorState",
    "bloch_orbital_matrix",
    "build_h8",
    "dispersion",
    "eigensolve",
    "h4_topmost",
    "h6_vb",
    "top_valence_doublet",
]

HBAR2_OVER_2M0 = 0.0380998  # eV nm^2; single source of unit truth

BLOCH_LABELS = ("CB+1/2", "CB-1/2", "HH+3/2", "LH+1/2",
                "LH-1/2", "HH-3/2", "SO+1/2", "SO-1/2")
ORBITAL_SPIN_LABELS = ("S_up", "X_up", "Y_up", "Z_up",
                       "S_dn", "X_dn", "Y_dn", "Z_dn")

VB_SLICE = slice(2, 8)

_SQ2 = math.sqrt(2.0)
_SQ3 = math.sqrt(3.0)
_SQ32 = math.sqrt(1.5)


def _part_sources() -> list[int]:
    """For each of the 72 parts (real, imaginary; row-major) of a complex
    6x6, the index of its value in the list ``_vb_hole`` builds: 0 holds
    zero, then come the 8 real upper entries (the mirror image of each
    shares its value and has a +0 imaginary part), then the real part,
    the imaginary part and its negative of each of the 10 complex upper
    entries, the negative being the mirror image's.  The entries below
    are flat row-major indices, in ``_vb_hole``'s order."""
    source = [0] * 72
    for i, flat in enumerate((0, 7, 14, 21, 28, 35, 10, 17,
                              1, 2, 4, 5, 9, 11, 15, 16, 22, 23)):
        upper, mirror = 2 * flat, 12 * (flat % 6) + 2 * (flat // 6)
        re, im, minus_im = (1 + i, 0, 0) if i < 8 \
            else (3 * i - 15, 3 * i - 14, 3 * i - 13)
        source[upper], source[upper + 1] = re, im
        source[mirror], source[mirror + 1] = re, minus_im
    return source


_PART_SOURCES = np.array(_part_sources())
# the parts a stack writes (the others stay zero), with their sources
_STACK_PARTS = [(at, source)
                for at, source in enumerate(_PART_SOURCES.tolist()) if source]
# VB bands {HH+3/2, LH-1/2, SO-1/2} kept by the Kramers split, and their
# partners {LH+1/2, HH-3/2, SO+1/2}: at k = 0 only S couples the two sets
_KEPT_BANDS = np.array([0, 2, 5])
_PARTNER_BANDS = np.array([1, 3, 4])
_ALL_BANDS = np.arange(6)
# the 18 entries of a 6x6 that couple the two sets, in either direction
_COUPLINGS = np.zeros((6, 6), dtype=bool)
_COUPLINGS[_KEPT_BANDS[:, None], _PARTNER_BANDS] = True
_COUPLINGS |= _COUPLINGS.T
# largest max|h - h^dagger| (eV) a matrix may have and still be solved
_HERMITIAN_ATOL = 1e-12


class NonHermitianError(NumericalError):
    """Input matrix is not Hermitian within the requested tolerance."""


@dataclass(frozen=True, eq=False)
class SpinorState:
    """Complex coefficient vector over the Bloch basis, with its energy.

    A hole state has 6 entries, the VB rows in basis order HH+3/2,
    LH+1/2, LH-1/2, HH-3/2, SO+1/2, SO-1/2; ``eigensolve`` of an 8x8
    gives 8 (full basis).  The state keeps a read-only copy of the
    coefficients, so no later write to the caller's array changes it.
    States compare and hash by identity.
    """

    coefficients: np.ndarray
    energy: float | None = None

    def __post_init__(self):
        coeff = self._own(np.array(self.coefficients, dtype=complex))
        # np.linalg.norm of a complex vector, without its wrapper
        re, im = coeff.real, coeff.imag
        norm = math.sqrt(re.dot(re) + im.dot(im))
        # not a > comparison, which a NaN norm passes
        if not abs(norm - 1.0) <= 1e-10:
            raise NumericalError(f"spinor norm {norm} deviates from 1")

    def _own(self, coeff: np.ndarray) -> np.ndarray:
        """Keep the complex array coeff, one vector, read-only."""
        if coeff.ndim != 1 or coeff.size < 2:
            raise ValueError(f"unsupported spinor shape {coeff.shape}")
        coeff.flags.writeable = False
        object.__setattr__(self, "coefficients", coeff)
        return coeff

    @classmethod
    def _checked(cls, coeff: np.ndarray, energy: float) -> SpinorState:
        """The state of the complex array coeff, whose norm has passed
        ``_check_norms``; it keeps coeff itself, without the norm check."""
        state = object.__new__(cls)
        object.__setattr__(state, "energy", energy)
        state._own(coeff)
        return state


def _kvec(k) -> np.ndarray:
    """Wavevectors (..., 3) in 1/nm as an array; any non-finite component
    raises ValueError."""
    arr = np.asarray(k, dtype=float)
    if arr.shape[-1:] != (3,):
        raise ValueError("wavevector must have three components")
    if _first_failure(np.isfinite(arr)) is not None:
        raise ValueError("wavevector components must be finite")
    return arr


def _components(a: np.ndarray):
    """The components along the last axis of a: Python floats for a 1-D
    a (one point), whose arithmetic has the bits of numpy's at several
    times the speed of numpy scalars', or arrays over the batch."""
    return a.tolist() if a.ndim == 1 else a.transpose(-1, *range(a.ndim - 1))


# numpy's complex arithmetic, signed zeros included, on (real, imaginary)
# pairs of floats or float arrays, so that one point and a stack share the
# bits: a real operand r is the complex (r, +0.0).  Python's complex type
# divides by the divisor, where numpy multiplies by its reciprocal, and
# from 3.14 it mixes real and complex operands by other rules.

def _times(z, r):
    """z r for a complex z and a real r (numpy's full complex product)."""
    re, im = z
    return re * r - im * 0.0, re * 0.0 + im * r


def _over(z, r):
    """z / r for a complex z and a real r (numpy's quotient, by the
    reciprocal of the divisor)."""
    re, im = z
    rat = 0.0 / r
    scale = 1.0 / (r + 0.0 * rat)
    return (re + im * rat) * scale, (im - re * rat) * scale


def _scalars(k, voigt, p: MaterialParams):
    """Hole-picture scalar entries for wavevectors (..., 3) and Voigt
    strains (..., 6): P and Q real, R and S as (real, imaginary) pairs,
    each part of the broadcast batch shape, with the bits of the same
    expressions in complex numpy."""
    kx, ky, kz = _components(_kvec(k))
    exx, eyy, ezz, eyz, exz, exy = _components(voigt)
    k2 = kx * kx + ky * ky + kz * kz
    tr = exx + eyy + ezz
    kin = HBAR2_OVER_2M0

    pp = -p.vb_edge + kin * p.gamma1 * k2 - p.av * tr
    qq = kin * p.gamma2 * (k2 - 3.0 * kz * kz) \
        - 0.5 * p.b * (exx + eyy - 2.0 * ezz)
    # R = K sqrt(3) [-g2 (kx^2 - ky^2) + 2i g3 kx ky]
    #     + (sqrt(3) b / 2)(exx - eyy) - i d exy, evaluated left to right
    re, im = _times(_times(_times((0.0, 2.0), p.gamma3), kx), ky)
    re, im = _times((-p.gamma2 * (kx * kx - ky * ky) + re, 0.0 + im),
                    kin * _SQ3)
    shear = _times(_times((0.0, 1.0), p.d), exy)
    rr = (re + 0.5 * _SQ3 * p.b * (exx - eyy) - shear[0],
          im + 0.0 - shear[1])
    # S = 2 sqrt(3) K g3 (kx - i ky) kz - d (exz - i eyz)
    re, im = _times((0.0, 1.0), ky)
    re, im = _times(_times((kx - re, 0.0 - im),
                           2.0 * _SQ3 * kin * p.gamma3), kz)
    shear = _times((0.0, 1.0), eyz)
    shear = _times((exz - shear[0], 0.0 - shear[1]), p.d)
    ss = (re - shear[0], im - shear[1])
    return pp, qq, rr, ss


def _vb_hole(k, voigt, p, hh_shift=0.0, lh_shift=0.0) -> np.ndarray:
    """Hole-picture VB matrices of shape (..., 6, 6) for Voigt strains of
    shape (..., 6); shifts are hole-picture diagonal adds.

    The lower triangle mirrors the upper one exactly (a conjugate, and a
    real entry's mirror keeps a +0 imaginary part), so every matrix is
    exactly Hermitian and reads the same from either triangle."""
    pp, qq, rr, ss = _scalars(k, voigt, p)
    dso = p.delta
    real = (pp + qq + hh_shift, pp - qq + lh_shift, pp - qq + lh_shift,
            pp + qq + hh_shift, pp + dso, pp + dso, -_SQ2 * qq, _SQ2 * qq)
    # -S, R, -S/sqrt(2), sqrt(2) R, R, sqrt(3/2) S, S, sqrt(3/2) S*,
    # -sqrt(2) R* and -S*/sqrt(2), with numpy's signed zeros
    (r0, r1), (s0, s1) = rr, ss
    complex_ = ((-s0, -s1), rr, _over((-s0, -s1), _SQ2), _times(rr, _SQ2),
                rr, _times(ss, _SQ32), ss, _times((s0, -s1), _SQ32),
                _times((r0, -r1), -_SQ2), _over((-s0, s1), _SQ2))
    # the values of the parts, in the order of _part_sources
    values = [0.0, *real]
    for re, im in complex_:
        values += (re, im, -im)
    if isinstance(pp, float):
        # one point: Python floats, gathered by two array calls
        return np.array(values)[_PART_SOURCES].view(complex).reshape(6, 6)
    # a stack: one strided write per part that is not zero
    h = np.zeros(np.shape(pp) + (72,))
    for at, source in _STACK_PARTS:
        h[..., at] = values[source]
    return h.view(complex).reshape(h.shape[:-1] + (6, 6))


def h6_vb(k, strain: StrainState, p: MaterialParams) -> np.ndarray:
    """Electron-picture 6x6 VB block."""
    return -_vb_hole(k, strain.as_voigt(), p)


def build_h8(k, strain: StrainState, p: MaterialParams) -> np.ndarray:
    """Full 8x8 Hamiltonian (eV), CB block decoupled from the VB block;
    a stack (..., 8, 8) for wavevectors of shape (..., 3)."""
    k = _kvec(k)
    kx, ky, kz = _components(k)
    h = np.zeros(k.shape[:-1] + (8, 8), dtype=complex)
    # the CB edge with its kinetic and hydrostatic shifts
    h[..., 0, 0] = h[..., 1, 1] = p.vb_edge + p.eg \
        + HBAR2_OVER_2M0 * (kx * kx + ky * ky + kz * kz) / p.me \
        + p.ac * (strain.exx + strain.eyy + strain.ezz)
    h[..., VB_SLICE, VB_SLICE] = h6_vb(k, strain, p)
    return h


def h4_topmost(k, strain: StrainState, p: MaterialParams) -> np.ndarray:
    """HH/LH 4x4 block (rows/cols 2..5 of the 8x8), electron picture."""
    return h6_vb(k, strain, p)[..., :4, :4]


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Unit columns of (..., m, j) with the first coefficient above 1e-10
    of each (a unit column always has one) made real and positive, so
    degenerate subspaces come out reproducibly for identical inputs."""
    pivot = (np.abs(vectors) > 1e-10).argmax(axis=-2)
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
    # one reduction over the flattened matrices, not over two axes (an
    # explicit size: a -1 cannot be resolved for an empty stack)
    m = h.shape[-1]
    resid = np.abs(h - _herm(h)).reshape(h.shape[:-2] + (m * m,)).max(axis=-1)
    first = _first_failure(resid <= _HERMITIAN_ATOL)
    if first is not None:
        raise NonHermitianError(
            f"matrix is not Hermitian: residual "
            f"{resid.ravel()[first]:g} exceeds {_HERMITIAN_ATOL:g}")


def _herm(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2).conjugate()


def _check_norms(vectors: np.ndarray) -> None:
    """Raise SpinorState's error for the first column of (..., m, j) whose
    norm drifts from 1 by more than 1e-10."""
    squares = (vectors.conjugate() * vectors).real.sum(axis=-2)
    first = _first_failure(np.abs(np.sqrt(squares) - 1.0) <= 1e-10)
    if first is not None:
        columns = np.moveaxis(vectors, -1, -2).reshape(-1, vectors.shape[-2])
        SpinorState(columns[first])


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


def _time_reverse(psi: np.ndarray) -> np.ndarray:
    """T psi = U conj(psi) of VB coefficients (..., 6, j), bands second to
    last, as a gather, not a product, whose BLAS call would grow with the
    stack: U is a signed permutation, so the values are the product's,
    and + 0.0 turns every -0.0 into 0.0."""
    return _TR_SIGNS[:, None] * psi[..., _TR_COLUMNS, :].conj() + 0.0


def _kramers_pairs(kept: np.ndarray) -> np.ndarray:
    """Doublets of shape (..., 6, 2k), psi_j in column 2j and T psi_j in
    column 2j + 1, from coefficients (..., 3, k) over ``_KEPT_BANDS``:
    psi holds them on the kept bands, and its partner T psi lives on the
    partner bands."""
    pairs = np.zeros(kept.shape[:-2] + (6, kept.shape[-1], 2), dtype=complex)
    psi = pairs[..., 0]
    psi[..., _KEPT_BANDS, :] = kept
    pairs[..., 1] = _time_reverse(psi)
    return pairs.reshape(pairs.shape[:-2] + (2 * kept.shape[-1],))


def _kramers_solve(blocks: np.ndarray, solve, k: int) \
        -> tuple[np.ndarray, np.ndarray]:
    """The k topmost Kramers pairs of the operator built from the VB
    matrices ``blocks`` (..., 6, 6): energies (..., 2k) and vectors
    (..., 6, 2k), descending, from ``solve(bands, count)``, which gives
    the ``count`` topmost eigenpairs, energies (..., count) and vectors
    (..., len(bands), count), of the operator restricted to ``bands``.

    If no entry of ``blocks`` couples ``_KEPT_BANDS`` to
    ``_PARTNER_BANDS``, in either direction, the operator splits into the
    two sets; it commutes with time reversal (the bulk matrices are even
    in k, and the well is solved at k_parallel = 0), so the partner block
    holds the time-reversed states of the kept one.  Then only the kept
    bands are solved, for k vectors, and each psi comes back with T psi
    at its energy, an exact degenerate orthogonal pair.  Any other
    operator solves all six bands for 2k vectors.
    """
    if np.count_nonzero(blocks[..., _COUPLINGS]):
        return solve(_ALL_BANDS, 2 * k)
    energies, kept = solve(_KEPT_BANDS, k)
    return np.repeat(energies, 2, axis=-1), _kramers_pairs(kept)


def _top_eigh(h: np.ndarray, bands: np.ndarray, count: int) \
        -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` topmost eigenpairs, descending, of matrices h
    (..., 6, 6) restricted to ``bands``, by one batched ``eigh``, real
    when the restriction's imaginary part is exactly zero.  All six
    bands are h itself, not a gathered copy.  h mirrors its upper
    triangle exactly (see ``_vb_hole``), so symmetrizing it changes no
    value; it does set the sign of zero parts, on which eigh's choice of
    vectors inside a degenerate pair depends, so it stays."""
    block = h if len(bands) == 6 else h[..., bands[:, None], bands]
    block = block if np.count_nonzero(block.imag) else block.real
    energies, vectors = np.linalg.eigh((block + _herm(block)) / 2.0)
    return energies[..., :-count - 1:-1], vectors[..., :-count - 1:-1]


def _doublet_stack(voigt, p: MaterialParams, k=(0, 0, 0), *,
                   hh_shift: float = 0.0, lh_shift: float = 0.0) \
        -> tuple[np.ndarray, np.ndarray]:
    """Topmost VB doublets of Voigt strains (..., 6) from one batched
    eigensolve: energies (..., 2) and VB states (..., 6, 2);
    the shifts add to the electron-picture HH and LH diagonal entries
    (the emulated confinement of ``qw``).

    ``_kramers_solve`` decides the split once for the whole stack, and
    for a uniaxial sweep (``uniaxial_sweep``) at one k, one prestress and
    one pair of shifts, as every caller builds it, that is the path and
    the dtype each of its matrices takes alone: the coupling entries and
    the imaginary parts are those of S and Im R, which depend on k and
    the shears alone, the same bits at every point.  So every doublet has
    the same bits in any batch as alone.  Either way every matrix passes
    the Hermitian check of ``eigensolve``, and every doublet the norm
    check of ``SpinorState`` and the pair checks of ``Doublet``.
    """
    h = -_vb_hole(k, voigt, p, -hh_shift, -lh_shift)
    _check_hermitian(h)
    energies, vectors = _kramers_solve(h, partial(_top_eigh, h), 1)
    states = _fix_phases(vectors)
    _check_norms(states)
    _check_doublets(energies, states)
    return energies, states


def top_valence_doublet(strain: StrainState, p: MaterialParams,
                        k=(0, 0, 0)) -> Doublet:
    """Topmost (Kramers-degenerate) VB doublet, as 6-component states."""
    energies, states = _doublet_stack(strain.as_voigt(), p, k)
    # the pair and the norms are checked: the states skip SpinorState's
    # check and share the read-only rows of one complex (2, 6) array,
    # laid out as the copy that Doublet((a, b)) makes
    pair = states.T.astype(complex, order="C")
    pair.flags.writeable = False
    a, b = energies.tolist()
    return Doublet._checked((SpinorState._checked(pair[0], a),
                             SpinorState._checked(pair[1], b)), pair)


def _valence(psi: np.ndarray) -> np.ndarray:
    """The VB coefficients (..., 6, j) of hole states psi (..., m, j): six
    rows as they are, or eight (the full basis of ``eigensolve``) without
    the CB rows, which must hold no weight; any other psi raises
    ValueError."""
    if psi.shape[-2] == 8 and np.sum(np.abs(psi[..., :2, :]) ** 2) <= 1e-9:
        return psi[..., VB_SLICE, :]
    if psi.shape[-2] != 6:
        raise ValueError(f"hole states need 6 VB components, or 8 with no "
                         f"CB weight; got {psi.shape[-2]}")
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


# the package's one Bloch-orbital table, and time reversal T psi = U conj(psi)
# on the six VB coefficients: i sigma_y K on the table's spin (real orbitals).
# U is a real signed permutation; the product is off from it by round-off
# (entries 1 +- 2.2e-16, cross terms 2.8e-17), so it is rounded to the
# exact matrix (+ 0.0 clears the negative zeros); row i holds its one
# nonzero, _TR_SIGNS[i], in column _TR_COLUMNS[i], so a partner T psi is a
# gather with the same bits whatever stack psi is solved in.
_BLOCH_ORBITALS = bloch_orbital_matrix()
_TIME_REVERSAL = (np.conj(_BLOCH_ORBITALS.T)
                  @ np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(4))
                  @ np.conj(_BLOCH_ORBITALS))[VB_SLICE, VB_SLICE]
_TIME_REVERSAL = np.round(_TIME_REVERSAL.real) + 0.0
_TR_COLUMNS = np.abs(_TIME_REVERSAL).argmax(axis=1)
_TR_SIGNS = _TIME_REVERSAL[np.arange(6), _TR_COLUMNS]
_BLOCH_ORBITALS.flags.writeable = False
_TIME_REVERSAL.flags.writeable = False
_TR_COLUMNS.flags.writeable = _TR_SIGNS.flags.writeable = False


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
