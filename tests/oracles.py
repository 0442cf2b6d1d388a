"""Reference constructions that the tests check the library against."""

import itertools
import math

import numpy as np

from strainkp.axis import QuantizationAxis
from strainkp.elasticity import StrainState, stiffness_matrix
from strainkp.kp_bulk import HBAR2_OVER_2M0
from strainkp.states import SpinorState, bloch_orbital_matrix


def rotated_basis(axis) -> list[SpinorState]:
    """The eight Bloch basis states quantized along ``axis``, a
    ``QuantizationAxis``.

    At theta = phi = 0 this is exactly the canonical basis.  The HH/LH
    states span the J = 3/2 quadruplet and the SO states the J = 1/2
    doublet for every axis, so the three pair subspaces are rotation
    covariant.
    """
    ct, st = math.cos(axis.theta), math.sin(axis.theta)
    cp, sp = math.cos(axis.phi), math.sin(axis.phi)
    c, s = math.cos(axis.theta / 2.0), math.sin(axis.theta / 2.0)
    em, ep = np.exp(-0.5j * axis.phi), np.exp(0.5j * axis.phi)
    # rows: the orbitals (S, X', Y', Z'), Z' along n, in (S, X, Y, Z) and
    # the spinors quantized along n in the z-spinors
    ro = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, ct * cp, ct * sp, -st],
                   [0.0, -sp, cp, 0.0], [0.0, st * cp, st * sp, ct]])
    rs = np.array([[em * c, ep * s], [-em * s, ep * c]])
    # column 4 s' + o' is that primed product in the canonical products
    u = bloch_orbital_matrix()
    w = u.conj().T @ np.kron(rs.T, ro.T) @ u
    return [SpinorState(w[:, j]) for j in range(8)]


def vb_hole_complex(k, voigt, p) -> np.ndarray:
    """``kp_bulk._vb_hole`` of wavevectors (n, 3) and Voigt strains (n, 6)
    as written in complex numpy arithmetic, entry by entry: the
    reference for the bits, signed zeros included, that the library
    computes on real and imaginary parts.  The imaginary units are numpy
    scalars, so every product is numpy's whatever Python's own complex
    arithmetic does."""
    i1, i2 = np.complex128(1j), np.complex128(2j)
    sq2, sq3, sq32 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(1.5)
    kin = HBAR2_OVER_2M0
    kx, ky, kz = np.asarray(k, dtype=float).T
    exx, eyy, ezz, eyz, exz, exy = np.asarray(voigt, dtype=float).T
    k2 = kx * kx + ky * ky + kz * kz
    tr = exx + eyy + ezz
    pp = -p.vb_edge + kin * p.gamma1 * k2 - p.av * tr
    qq = kin * p.gamma2 * (k2 - 3.0 * kz * kz) \
        - 0.5 * p.b * (exx + eyy - 2.0 * ezz)
    rr = kin * sq3 * (-p.gamma2 * (kx * kx - ky * ky)
                      + i2 * p.gamma3 * kx * ky) \
        + 0.5 * sq3 * p.b * (exx - eyy) - i1 * p.d * exy
    ss = 2.0 * sq3 * kin * p.gamma3 * (kx - i1 * ky) * kz \
        - p.d * (exz - i1 * eyz)
    sc, rc = np.conj(ss), np.conj(rr)
    dso = p.delta
    entries = {
        (0, 0): pp + qq, (1, 1): pp - qq, (2, 2): pp - qq, (3, 3): pp + qq,
        (4, 4): pp + dso, (5, 5): pp + dso,
        (0, 1): -ss, (0, 2): rr, (0, 4): -ss / sq2, (0, 5): sq2 * rr,
        (1, 3): rr, (1, 4): -sq2 * qq, (1, 5): sq32 * ss,
        (2, 3): ss, (2, 4): sq32 * sc, (2, 5): sq2 * qq,
        (3, 4): -sq2 * rc, (3, 5): -sc / sq2}
    h = np.zeros(np.shape(pp) + (6, 6), dtype=complex)
    for (row, col), value in entries.items():
        h[..., col, row] = np.conj(value)
        h[..., row, col] = value
    return h


def strain_by_lu(stress, p) -> np.ndarray:
    """Voigt strain (tensor shears) of a ``StressTensor`` by an LU solve of
    the 6x6 cubic stiffness, the general inversion that the closed-form
    compliance of ``strain_from_stress`` replaces."""
    engineering = np.linalg.solve(stiffness_matrix(p), stress.as_voigt())
    engineering[3:] /= 2.0
    return engineering


# the 48 operations of O_h as signed permutation matrices
CUBIC_GROUP = [np.diag(signs) @ np.eye(3)[list(order)]
               for order in itertools.permutations(range(3))
               for signs in itertools.product((1.0, -1.0), repeat=3)]


def strain_of(e) -> StrainState:
    """The ``StrainState`` of a symmetric 3x3 strain tensor."""
    return StrainState(e[0, 0], e[1, 1], e[2, 2], e[1, 2], e[0, 2], e[0, 1])


def axis_of(n) -> QuantizationAxis:
    """The ``QuantizationAxis`` along a unit vector n."""
    return QuantizationAxis(math.acos(max(-1.0, min(1.0, n[2]))),
                            math.atan2(n[1], n[0]))
