"""Reference constructions that the tests check the library against."""

import math

import numpy as np

from strainkp.kp_bulk import SpinorState, bloch_orbital_matrix


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
