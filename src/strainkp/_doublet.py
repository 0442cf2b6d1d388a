"""The hole doublet, checked once where it is made.

A ``Doublet`` is a tuple of the two states of a degenerate orthonormal
pair, with their coefficients side by side.  Its constructor checks any
pair of states; the bulk solve, which has checked its whole stack with
``_check_doublets`` already, hands its pair on through
``Doublet._checked``.  So a call that takes a pair (``project_hgs``,
``dipole_strengths``) reads a Doublet's coefficients as they are and
checks any other pair by making it one.

``NumericalError`` and ``_first_failure`` serve every numerical check of
the package; ``kp_bulk`` imports them from here.
"""

from __future__ import annotations

import numpy as np

# largest energy gap (eV) inside a pair that still counts as a doublet
_DEGENERACY_ATOL = 1e-6


class NumericalError(ValueError):
    """A computed result failed a numerical check (Hermiticity, doublet
    degeneracy or orthogonality, norm drift)."""


def _first_failure(ok: np.ndarray) -> int | None:
    """Flat index of the first False of ``ok``, in stack order, or None.
    Each check passes a value by a <= comparison, which NaN fails."""
    if np.count_nonzero(ok) == ok.size:
        return None
    return int(np.argmin(ok))


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
    their coefficients, ``SpinorState`` (m,) or well envelope (6, N),
    have one shape, and that the pair passes ``_check_doublets``; a
    Doublet is returned as it is.  ``coefficients`` holds the two side by
    side, read-only: (m, 2), or (6, 2N) as np.hstack joins envelopes.
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
