import itertools
import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from oracles import CUBIC_GROUP, axis_of, rotated_basis, strain_of
from strainkp.axis import (QuantizationAxis, _hgs_tensor, commutator_norm,
                           default_theta_grid, j_operator, mixing_curve,
                           mixing_map, project_hgs)
from strainkp.elasticity import (StrainState, biaxial_strain, superpose,
                                 uniaxial_strain, uniaxial_sweep)
from strainkp.kp_bulk import (SpinorState, _doublet_stack,
                              bloch_orbital_matrix, dispersion, h4_topmost,
                              top_valence_doublet)
from strainkp.qw import QwGeometry, envelope_projection, solve_qw

X_AXIS = QuantizationAxis(math.pi / 2.0)
Z_AXIS = QuantizationAxis(0.0)
K0 = (0.0, 0.0, 0.0)


def jx_eigen_projection(state6):
    """Independent oracle on the six VB coefficients: HH/LH weights from
    the eigenvectors of J_x on the 4-band block (distinct eigenvalues, so
    unique up to phase); SO weight from the split-off rows, which are axis
    independent."""
    jx = np.array([[0, math.sqrt(3) / 2, 0, 0],
                   [math.sqrt(3) / 2, 0, 1, 0],
                   [0, 1, 0, math.sqrt(3) / 2],
                   [0, 0, math.sqrt(3) / 2, 0]])
    vals, vecs = np.linalg.eigh(jx)  # ascending: -3/2, -1/2, +1/2, +3/2
    four = state6[:4]
    weights = np.abs(vecs.conj().T @ four) ** 2
    p_hh = weights[0] + weights[3]
    p_lh = weights[1] + weights[2]
    p_so = abs(state6[4]) ** 2 + abs(state6[5]) ** 2
    return p_hh, p_lh, p_so


def test_jz_diagonal():
    jz = j_operator("z")
    assert np.allclose(jz, np.diag([1.5, 0.5, -0.5, -1.5]))


def test_jx_matrix():
    s = math.sqrt(3) / 2
    expected = np.array([[0, s, 0, 0], [s, 0, 1, 0],
                         [0, 1, 0, s], [0, 0, s, 0]])
    assert np.allclose(j_operator("x"), expected)


def test_commutator_algebra_closes():
    jx, jy, jz = (j_operator(c) for c in "xyz")
    comm = jx @ jz - jz @ jx
    assert np.allclose(comm.conj().T, -comm)  # anti-Hermitian
    assert np.allclose(comm, -1j * jy, atol=1e-14)
    # full angular momentum algebra and Casimir
    assert np.allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-14)
    assert np.allclose(jy @ jz - jz @ jy, 1j * jx, atol=1e-14)
    assert np.allclose(jx @ jx + jy @ jy + jz @ jz,
                       (15.0 / 4.0) * np.eye(4), atol=1e-14)


def test_j_operator_rejects_unknown():
    with pytest.raises(ValueError):
        j_operator("w")


def test_rotated_basis_identity_at_zero():
    for state, column in zip(rotated_basis(QuantizationAxis(0.0, 0.0)),
                             np.eye(8)):
        assert np.allclose(state.coefficients, column, atol=1e-15)


def test_rotated_basis_orthonormal(rng):
    for _ in range(20):
        axis = QuantizationAxis(rng.uniform(0, math.pi),
                                rng.uniform(0, 2 * math.pi))
        vecs = np.column_stack([s.coefficients
                                for s in rotated_basis(axis)])
        gram = vecs.conj().T @ vecs
        assert np.max(np.abs(gram - np.eye(8))) < 1e-12


def test_hh_x_has_no_x_orbital_content():
    u = bloch_orbital_matrix()
    states = rotated_basis(X_AXIS)
    for index in (2, 5):  # the HH pair
        product = u @ states[index].coefficients
        x_weight = abs(product[1]) ** 2 + abs(product[5]) ** 2
        assert x_weight < 1e-24


def test_biaxial_compression_pure_hh_z(gaas):
    doublet = top_valence_doublet(biaxial_strain(-0.12, gaas), gaas)
    proj = project_hgs(doublet, Z_AXIS)
    assert proj.p_hh == pytest.approx(1.0, abs=1e-12)


def test_tension_gives_hh_x_with_lh_admixture(gaas):
    pre = biaxial_strain(-0.12, gaas)
    strain = superpose(pre, uniaxial_strain(2.0, gaas))
    proj = project_hgs(top_valence_doublet(strain, gaas), X_AXIS)
    assert proj.p_hh > 0.9
    assert proj.p_lh > proj.p_so > 0


def test_compression_gives_lh_x_with_so_admixture(gaas):
    pre = biaxial_strain(-0.12, gaas)
    strain = superpose(pre, uniaxial_strain(-2.0, gaas))
    proj = project_hgs(top_valence_doublet(strain, gaas), X_AXIS)
    assert proj.p_lh > 0.9
    assert proj.p_lh > proj.p_so > proj.p_hh


def test_projection_matches_jx_eigen_oracle(gaas):
    pre = biaxial_strain(-0.12, gaas)
    for sigma in (-2.0, -0.6, 0.0, 0.8, 2.0):
        strain = superpose(pre, uniaxial_strain(sigma, gaas))
        doublet = top_valence_doublet(strain, gaas)
        proj = project_hgs(doublet, X_AXIS)
        expected = 0.5 * np.sum(
            [jx_eigen_projection(s.coefficients) for s in doublet], axis=0)
        assert proj.p_hh == pytest.approx(expected[0], abs=1e-9)
        assert proj.p_lh == pytest.approx(expected[1], abs=1e-9)
        assert proj.p_so == pytest.approx(expected[2], abs=1e-9)


def test_non_degenerate_pair_rejected(gaas):
    states = top_valence_doublet(biaxial_strain(-0.5, gaas), gaas)
    lower = SpinorState(states[0].coefficients,
                        energy=states[0].energy - 1.0)
    with pytest.raises(ValueError, match="degenerate"):
        project_hgs((states[1], lower), Z_AXIS)


def test_pair_with_nan_energies_rejected(gaas):
    # a NaN gap is no degeneracy: the pair is rejected, not projected
    a, b = top_valence_doublet(biaxial_strain(-0.5, gaas), gaas)
    pair = [SpinorState(s.coefficients, energy=math.nan) for s in (a, b)]
    with pytest.raises(ValueError, match="not degenerate"):
        project_hgs(pair, Z_AXIS)


def test_doublet_remix_invariance(gaas, rng):
    strain = superpose(biaxial_strain(-0.12, gaas),
                       uniaxial_strain(0.4, gaas))
    a, b = top_valence_doublet(strain, gaas)
    base = project_hgs((a, b), X_AXIS)
    pair = np.column_stack([a.coefficients, b.coefficients])
    for _ in range(50):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(m)
        mixed = pair @ u
        remixed = (SpinorState(mixed[:, 0], energy=a.energy),
                   SpinorState(mixed[:, 1], energy=b.energy))
        proj = project_hgs(remixed, X_AXIS)
        assert abs(proj.p_hh - base.p_hh) < 1e-12
        assert abs(proj.p_lh - base.p_lh) < 1e-12
        assert abs(proj.p_so - base.p_so) < 1e-12


def test_projection_completeness(gaas, random_strain):
    for _ in range(50):
        doublet = top_valence_doublet(random_strain(shear=False), gaas)
        proj = project_hgs(doublet, QuantizationAxis(0.7, 1.3))
        assert proj.total == pytest.approx(1.0, abs=1e-9)


def test_axis_flip_symmetry(gaas, rng):
    strain = superpose(biaxial_strain(-0.12, gaas),
                       uniaxial_strain(-0.9, gaas))
    doublet = top_valence_doublet(strain, gaas)
    for _ in range(10):
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        p1 = project_hgs(doublet, QuantizationAxis(theta, phi))
        p2 = project_hgs(doublet, QuantizationAxis(math.pi - theta,
                                                   phi + math.pi))
        assert p1.p_hh == pytest.approx(p2.p_hh, abs=1e-12)
        assert p1.p_lh == pytest.approx(p2.p_lh, abs=1e-12)


def test_commutator_vanishes_biaxial_jz(gaas, rng):
    jz = j_operator("z")
    for _ in range(100):
        strain = biaxial_strain(rng.uniform(-2, 2), gaas)
        assert commutator_norm(jz, h4_topmost(K0, strain, gaas)) < 1e-12


def test_commutator_vanishes_uniaxial_jx(gaas, rng):
    jx = j_operator("x")
    for _ in range(100):
        strain = uniaxial_strain(rng.uniform(-2, 2), gaas)
        assert commutator_norm(jx, h4_topmost(K0, strain, gaas)) < 1e-12


def test_commutator_jz_uniaxial_proportional_to_r(gaas):
    # [J_z, H] only touches the R positions with |delta m| = 2, so the
    # Frobenius norm is exactly 4|R_eps|
    jz = j_operator("z")
    for sigma in (0.1, 0.5, -1.5):
        strain = uniaxial_strain(sigma, gaas)
        r_eps = 0.5 * math.sqrt(3) * gaas.b * (strain.exx - strain.eyy)
        norm = commutator_norm(jz, h4_topmost(K0, strain, gaas))
        assert norm > 1e-6
        assert norm == pytest.approx(4.0 * abs(r_eps), rel=1e-12)


@pytest.mark.parametrize("stresses", [[[0.1, 0.2], [0.3, 0.4]], 0.5],
                         ids=["2d", "0d"])
def test_mixing_curve_rejects_stresses_not_1d(gaas, stresses):
    # a 2-D grid raised numpy's bare broadcast error, and a scalar was
    # taken as one point
    with pytest.raises(ValueError, match="stresses_gpa must be a 1-D"):
        mixing_curve(stresses, None, (Z_AXIS,), gaas)


def test_mixing_curve_shape_and_zero_stress_row(gaas):
    pre = biaxial_strain(-0.12, gaas)
    stresses = np.linspace(-2, 2, 41)
    rows, = mixing_curve(stresses, pre, (Z_AXIS,), gaas)
    assert rows.shape == (41, 4)
    i0 = np.argmin(np.abs(stresses))
    assert rows[i0, 1] == pytest.approx(1.0, abs=1e-9)
    assert rows[i0, 0] == pytest.approx(pre.exx, rel=1e-12)


def test_mixing_map_edges_match_curves(gaas):
    pre = biaxial_strain(-0.12, gaas)
    stresses = np.linspace(-2, 2, 21)
    thetas, strain_xx, phh = mixing_map(stresses, pre, gaas,
                                        thetas=default_theta_grid(7))
    curve_z, curve_x = mixing_curve(stresses, pre, (Z_AXIS, X_AXIS), gaas)
    assert strain_xx == pytest.approx(curve_z[:, 0], rel=1e-12)
    assert phh[0] == pytest.approx(curve_z[:, 1], abs=1e-12)
    assert phh[-1] == pytest.approx(curve_x[:, 1], abs=1e-12)


def test_mixing_map_interior_matches_point_projections(gaas):
    # the grid's one n n^T product against one project_hgs call per cell,
    # off the z/x edges and off the phi = 0 plane; both read the same
    # tensor, so this checks the grid's axes, and the overlap oracle
    # test_projection_matches_rotated_basis_overlaps the weights
    pre = biaxial_strain(-0.12, gaas)
    stresses = np.linspace(-2, 2, 7)
    phi = math.radians(30.0)
    thetas, strain_xx, phh = mixing_map(stresses, pre, gaas,
                                        thetas=default_theta_grid(6), phi=phi)
    total = uniaxial_sweep(stresses, gaas, pre)
    for j, voigt in enumerate(total):
        doublet = top_valence_doublet(StrainState(*voigt), gaas)
        for i in range(1, len(thetas) - 1):
            expected = project_hgs(doublet,
                                   QuantizationAxis(thetas[i], phi)).p_hh
            assert abs(phh[i, j] - expected) <= 1e-12


def test_mixing_map_ridge_migrates(gaas):
    pre = biaxial_strain(-0.12, gaas)
    stresses = np.linspace(0, 2, 21)
    thetas, _, phh = mixing_map(stresses, pre, gaas,
                                thetas=default_theta_grid(31))
    assert np.argmax(phh[:, 0]) == 0                  # z axis at no stress
    assert np.argmax(phh[:, -1]) == len(thetas) - 1   # x axis at max tension


def test_mixing_map_rejects_empty_grid(gaas):
    with pytest.raises(ValueError):
        mixing_map([], biaxial_strain(-0.12, gaas), gaas)


def test_mixing_map_memory_is_bounded(gaas):
    # the map is the largest array of a sweep and is made once: scaled
    # in place, not held twice (measured 1.13 times its bytes at 2001 x
    # 361; twice them when the scaled copy was a second array)
    pre = biaxial_strain(-0.12, gaas)
    stresses = np.linspace(-2.0, 2.0, 2001)
    thetas = default_theta_grid(361)
    mixing_map(stresses[:3], pre, gaas, thetas=thetas[:3])  # warm caches
    tracemalloc.start()
    try:
        _, _, phh = mixing_map(stresses, pre, gaas, thetas=thetas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert phh.shape == (361, 2001)
    assert peak < 1.5 * phh.nbytes


def overlap_oracle(states, axis):
    """(p_hh, p_lh, p_so): (1/2) sum |b^dagger psi|^2 over each rotated
    pair b of ``rotated_basis(axis)`` and over the states, bulk spinors
    (6,) or well envelopes (6, N) (the overlap is taken node by node),
    each padded with the two empty CB rows of the eight-state basis."""
    basis = np.column_stack([b.coefficients for b in rotated_basis(axis)])
    weights = np.zeros(8)
    for state in states:
        c = state.coefficients.reshape(len(state.coefficients), -1)
        c = np.vstack([np.zeros((8 - len(c), c.shape[1])), c])
        weights += 0.5 * np.sum(np.abs(basis.conj().T @ c) ** 2, axis=1)
    return weights[[2, 5]].sum(), weights[[3, 4]].sum(), weights[[6, 7]].sum()


def random_axis(rng):
    return QuantizationAxis(rng.uniform(0.0, math.pi),
                            rng.uniform(0.1, 2.0 * math.pi - 0.1))


def test_projection_matches_rotated_basis_overlaps(table, gaas, rng,
                                                   random_strain):
    # the tensor readout against the overlaps with the rotated states
    for _ in range(20):
        doublet = top_valence_doublet(random_strain(), gaas)
        for _ in range(3):
            axis = random_axis(rng)
            assert astuple(project_hgs(doublet, axis)) == pytest.approx(
                overlap_oracle(doublet, axis), abs=1e-12)
    geometry = QwGeometry(4.0, barrier_thickness_nm=8.0, grid_points=61)
    states = solve_qw(geometry, random_strain(scale=0.005), table, 4)
    for j in (0, 2):
        for _ in range(3):
            axis = random_axis(rng)
            oracle = overlap_oracle(states[j:j + 2], axis)
            assert astuple(envelope_projection(states[j:j + 2], axis)) \
                == pytest.approx(oracle, abs=1e-12)
            assert astuple(project_hgs(states[j:j + 2], axis)) \
                == pytest.approx(oracle, abs=1e-12)


def test_j_operator_is_l_plus_s_of_the_bloch_table():
    # J = L + S on (S, X, Y, Z) x (up, dn), (L_a)_bc = -i eps_abc on the p
    # orbitals, taken to the Bloch basis: its HH/LH block is j_operator,
    # phases included, so the tensor kernel and the Bloch table agree
    eps = np.zeros((3, 3, 3))
    for a, b, c in itertools.permutations(range(3)):
        eps[a, b, c] = np.linalg.det(np.eye(3)[[a, b, c]])
    pauli = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
             np.array([[1, 0], [0, -1]]))
    u = bloch_orbital_matrix()
    for a, component in enumerate("xyz"):
        orbital = np.zeros((4, 4), dtype=complex)
        orbital[1:, 1:] = -1j * eps[a]
        j8 = np.kron(np.eye(2), orbital) + np.kron(pauli[a] / 2, np.eye(4))
        j_bloch = u.conj().T @ j8 @ u
        assert np.abs(j_bloch[2:6, 2:6] - j_operator(component)).max() \
            <= 1e-15
        assert np.abs(j_bloch[2:6, 6:]).max() <= 1e-15  # J keeps J^2


def test_flip_stress_cancels_the_prestress(gaas):
    # at uniaxial 0.12 GPa on the -0.12 GPa biaxial prestress the net
    # stress is uniaxial along y, so z and x are equivalent axes; the
    # difference changes sign through that stress
    pre = biaxial_strain(-0.12, gaas)

    def diff(stresses):
        z, x = mixing_curve(stresses, pre, (Z_AXIS, X_AXIS), gaas)
        return z[:, 1] - x[:, 1]

    samples = diff([0.1199, 0.12, 0.1201])
    assert abs(samples[1]) <= 1e-12
    assert samples[0] > 1e-4 and samples[2] < -1e-4
    # the bulk oracle: bisected on [0.1, 0.14] GPa, the one sign change
    # of p_hh_z - p_hh_x is the stress -(prestress) = 0.12 GPa
    lo, hi = 0.1, 0.14
    assert diff([lo])[0] > 0.0 > diff([hi])[0]
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if diff([mid])[0] > 0.0 else (lo, mid)
    assert abs(0.5 * (lo + hi) - 0.12) <= 1e-6


def test_exact_theta_maximum_matches_the_grid(gaas):
    # criterion 04's maximum over 61 theta, exactly: max over n in the xz
    # plane of n^T M n / 4 - t/16 is the top eigenvalue of M's xz block.
    # A shear-free strain keeps the mirror z -> -z, so M_xz = 0 and the
    # maximum sits on a grid edge: the grid misses it by round-off only
    pre = biaxial_strain(-0.12, gaas)
    stresses = np.linspace(0.0, 2.0, 201)
    _, _, phh = mixing_map(stresses, pre, gaas, thetas=default_theta_grid(61))
    total = uniaxial_sweep(stresses, gaas, pre)
    m, t, _ = _hgs_tensor(_doublet_stack(total, gaas)[1])
    exact = 0.25 * np.linalg.eigvalsh(m[:, ::2, ::2])[:, -1] - t / 16
    excess = exact - phh.max(axis=0)
    assert excess.min() >= -1e-12
    assert excess.max() <= 1e-12
    assert exact[0] >= 0.9 and exact[-1] >= 0.9 and exact[1:-1].min() < 0.9


def test_cubic_group_symmetry(gaas, rng):
    # energies are invariant under e -> g e g^T, k -> g k for all 48 cubic
    # operations, and the weights turn with the axis, p_b(g n; g e g^T) =
    # p_b(n; e), as does the tensor, M(g e g^T) = g M g^T
    assert len({tuple(g.ravel()) for g in CUBIC_GROUP}) == 48
    for _ in range(3):
        e = rng.uniform(-0.01, 0.01, size=(3, 3))
        e = (e + e.T) / 2.0
        k = rng.uniform(-0.3, 0.3, size=3)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        bands = dispersion([k], strain_of(e), gaas)
        doublet = top_valence_doublet(strain_of(e), gaas)
        weights = astuple(project_hgs(doublet, axis_of(n)))
        m = _hgs_tensor(doublet.coefficients)[0]
        for g in CUBIC_GROUP:
            strain = strain_of(g @ e @ g.T)
            assert np.abs(dispersion([g @ k], strain, gaas) - bands).max() \
                <= 1e-12
            turned = top_valence_doublet(strain, gaas)
            assert astuple(project_hgs(turned, axis_of(g @ n))) \
                == pytest.approx(weights, abs=1e-12)
            assert np.abs(_hgs_tensor(turned.coefficients)[0]
                          - g @ m @ g.T).max() <= 1e-12


def test_axis_unit_vector():
    axis = QuantizationAxis(math.pi / 2, 0.0)
    assert axis.unit_vector == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
    assert np.linalg.norm(QuantizationAxis(0.7, 2.0).unit_vector) \
        == pytest.approx(1.0, rel=1e-15)
