"""What a hole state is: the Bloch basis, the state types and their rules.

Basis ordering, fixed everywhere in this package::

    0  CB +1/2   iS(up)
    1  CB -1/2   iS(dn)
    2  HH +3/2   -(X + iY)(up)/sqrt(2)
    3  LH +1/2   -[(X + iY)(dn) - 2 Z(up)]/sqrt(6)
    4  LH -1/2   +[(X - iY)(up) + 2 Z(dn)]/sqrt(6)
    5  HH -3/2   +(X - iY)(dn)/sqrt(2)
    6  SO +1/2   +[(X + iY)(dn) + Z(up)]/sqrt(3)
    7  SO -1/2   +[(X - iY)(up) - Z(dn)]/sqrt(3)

The CB is decoupled, so a hole state is a ``SpinorState`` of its six VB
coefficients (rows 2-7): (6,) in bulk, or (6, N) envelopes in a well.
A ``Doublet`` is a degenerate orthonormal pair of them, checked once
where it is made: a solve that has checked its whole stack hands its
pair on through ``Doublet._checked``, and a call that takes a pair
checks any other by making it a Doublet.  The phase fix, the norm and
pair checks and time reversal are the rules every solve applies to its
states; ``NumericalError`` and ``_first_failure`` serve every numerical
check of the package.  This module imports numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BLOCH_LABELS",
    "Doublet",
    "NumericalError",
    "ORBITAL_SPIN_LABELS",
    "SpinorState",
    "bloch_orbital_matrix",
]

BLOCH_LABELS = ("CB+1/2", "CB-1/2", "HH+3/2", "LH+1/2",
                "LH-1/2", "HH-3/2", "SO+1/2", "SO-1/2")
ORBITAL_SPIN_LABELS = ("S_up", "X_up", "Y_up", "Z_up",
                       "S_dn", "X_dn", "Y_dn", "Z_dn")

VB_SLICE = slice(2, 8)


class NumericalError(ValueError):
    """A computed result failed a numerical check (Hermiticity, doublet
    degeneracy or orthogonality, norm drift)."""


def _first_failure(ok: np.ndarray) -> int | None:
    """Flat index of the first False of ``ok``, in stack order, or None.
    Each check passes a value by a <= comparison, which NaN fails."""
    if np.count_nonzero(ok) == ok.size:
        return None
    return int(np.argmin(ok))


@dataclass(frozen=True, eq=False)
class SpinorState:
    """Complex coefficients over the Bloch basis, with their energy.

    A bulk hole state has 6 entries, the VB rows in basis order HH+3/2,
    LH+1/2, LH-1/2, HH-3/2, SO+1/2, SO-1/2; ``eigensolve`` of an 8x8
    gives 8 (full basis); a well state has (6, N), one envelope per VB
    row over the nodes of ``QwGeometry.grid``.  The coefficients are unit
    normalized, and the state keeps a read-only copy of them, so no later
    write to the caller's array changes it.  States compare and hash by
    identity.
    """

    coefficients: np.ndarray
    energy: float | None = None

    def __post_init__(self):
        norm = np.linalg.norm(
            self._own(np.array(self.coefficients, dtype=complex)))
        # not a > comparison, which a NaN norm passes
        if not abs(norm - 1.0) <= 1e-10:
            raise NumericalError(f"spinor norm {norm} deviates from 1")

    def _own(self, coeff: np.ndarray) -> np.ndarray:
        """Keep the complex array coeff, one vector or (6, N) envelopes,
        read-only."""
        if not (coeff.ndim == 1 and coeff.size >= 2
                or coeff.ndim == 2 and coeff.shape[0] == 6):
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


# largest energy gap (eV) inside a pair that still counts as a doublet
_DEGENERACY_ATOL = 1e-6


def _check_doublets(energies: np.ndarray, states: np.ndarray) -> None:
    """Check that pairs, energies (..., 2) and states (..., m, 2), are
    degenerate within ``_DEGENERACY_ATOL`` and orthogonal; the first
    failing pair raises, with its gap reported before its overlap."""
    gap = np.abs(energies[..., 0] - energies[..., 1])
    overlap = np.abs((states[..., 0].conjugate() * states[..., 1])
                     .sum(axis=-1))
    first = _first_failure((gap <= _DEGENERACY_ATOL) & (overlap <= 1e-8))
    if first is None:
        return
    gap, overlap = gap.ravel()[first], overlap.ravel()[first]
    if not gap <= _DEGENERACY_ATOL:
        raise NumericalError(
            f"states are not degenerate: |dE| = {gap:g} eV exceeds "
            f"{_DEGENERACY_ATOL:g} eV")
    raise NumericalError(f"doublet states are not orthogonal "
                         f"(|overlap| = {overlap:g})")


class Doublet(tuple):
    """A degenerate orthonormal pair of hole states: a tuple of the two.

    ``Doublet((a, b))`` checks that both states carry energies, that
    their coefficients, (m,) or well envelopes (6, N), have one shape,
    and that the pair passes ``_check_doublets``; a Doublet is returned
    as it is.  ``coefficients`` holds the two side by side, read-only:
    (m, 2), or (6, 2N) as np.hstack joins envelopes.
    """

    def __new__(cls, states):
        if isinstance(states, Doublet):
            return states
        a, b = states
        if a.energy is None or b.energy is None:
            raise ValueError("doublet states need energies attached")
        if a.coefficients.shape != b.coefficients.shape:
            raise ValueError("doublet states live in different bases")
        pair = np.array([a.coefficients, b.coefficients])
        _check_doublets(np.array([a.energy, b.energy]),
                        pair.reshape(2, -1).T)
        return cls._checked((a, b), pair)

    @classmethod
    def _checked(cls, states, pair: np.ndarray) -> Doublet:
        """The Doublet of two states that have passed the checks, with
        their coefficients ``pair``, (2, m) or (2, 6, N)."""
        doublet = super().__new__(cls, states)
        coefficients = pair.swapaxes(0, 1).reshape(pair.shape[1], -1)
        coefficients.flags.writeable = False
        doublet.__dict__["coefficients"] = coefficients
        return doublet

    def __setattr__(self, name, value):
        raise AttributeError("a Doublet is immutable")

    def __reduce__(self):
        # copy and pickle remake it from its states, checked, and never
        # restore a writeable copy of the coefficients
        return Doublet, (tuple(self),)


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


def _check_norms(vectors: np.ndarray) -> None:
    """Raise SpinorState's error for the first column of (..., m, j) whose
    norm drifts from 1 by more than 1e-10."""
    squares = (vectors.conjugate() * vectors).real.sum(axis=-2)
    first = _first_failure(np.abs(np.sqrt(squares) - 1.0) <= 1e-10)
    if first is not None:
        columns = np.moveaxis(vectors, -1, -2).reshape(-1, vectors.shape[-2])
        SpinorState(columns[first])


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
    s2, s3, s6 = 1 / math.sqrt(2.0), 1 / math.sqrt(3.0), 1 / math.sqrt(6.0)
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


def _time_reverse(psi: np.ndarray) -> np.ndarray:
    """T psi = U conj(psi) of VB coefficients (..., 6, j), bands second to
    last, as a gather, not a product, whose BLAS call would grow with the
    stack: U is a signed permutation, so the values are the product's,
    and + 0.0 turns every -0.0 into 0.0."""
    return _TR_SIGNS[:, None] * psi[..., _TR_COLUMNS, :].conj() + 0.0

