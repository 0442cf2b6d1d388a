import math

import numpy as np
import pytest

from strainkp.axis import (QuantizationAxis, commutator_norm,
                           default_theta_grid, j_operator, mixing_curve,
                           mixing_map, project_hgs, rotated_basis)
from strainkp.elasticity import (StrainState, biaxial_strain, superpose,
                                 uniaxial_strain, uniaxial_sweep)
from strainkp.kp_bulk import (SpinorState, bloch_orbital_matrix, h4_topmost,
                              top_valence_doublet)

X_AXIS = QuantizationAxis(math.pi / 2.0)
Z_AXIS = QuantizationAxis(0.0)
K0 = (0.0, 0.0, 0.0)


def jx_eigen_projection(state8):
    """Independent oracle: HH/LH weights from the eigenvectors of J_x on
    the 4-band block (distinct eigenvalues, so unique up to phase); SO
    weight from the split-off rows, which are axis independent."""
    jx = np.array([[0, math.sqrt(3) / 2, 0, 0],
                   [math.sqrt(3) / 2, 0, 1, 0],
                   [0, 1, 0, math.sqrt(3) / 2],
                   [0, 0, math.sqrt(3) / 2, 0]])
    vals, vecs = np.linalg.eigh(jx)  # ascending: -3/2, -1/2, +1/2, +3/2
    four = state8[2:6]
    weights = np.abs(vecs.conj().T @ four) ** 2
    p_hh = weights[0] + weights[3]
    p_lh = weights[1] + weights[2]
    p_so = abs(state8[6]) ** 2 + abs(state8[7]) ** 2
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


def test_mixing_curve_shape_and_zero_stress_row(gaas):
    pre = biaxial_strain(-0.12, gaas)
    stresses = np.linspace(-2, 2, 41)
    rows = mixing_curve(stresses, pre, Z_AXIS, gaas)
    assert rows.shape == (41, 4)
    i0 = np.argmin(np.abs(stresses))
    assert rows[i0, 1] == pytest.approx(1.0, abs=1e-9)
    assert rows[i0, 0] == pytest.approx(pre.exx, rel=1e-12)


def test_mixing_curve_abscissa_flag(gaas):
    pre = biaxial_strain(-0.12, gaas)
    stresses = np.array([0.0, 1.0])
    total = mixing_curve(stresses, pre, Z_AXIS, gaas, abscissa="total")
    uni = mixing_curve(stresses, pre, Z_AXIS, gaas, abscissa="uniaxial")
    assert uni[0, 0] == 0.0
    assert total[:, 0] == pytest.approx(uni[:, 0] + pre.exx, rel=1e-12)
    assert np.array_equal(total[:, 1:], uni[:, 1:])
    with pytest.raises(ValueError):
        mixing_curve(stresses, pre, Z_AXIS, gaas, abscissa="bogus")


def test_mixing_map_edges_match_curves(gaas):
    pre = biaxial_strain(-0.12, gaas)
    stresses = np.linspace(-2, 2, 21)
    thetas, strain_xx, phh = mixing_map(stresses, pre, gaas,
                                        thetas=default_theta_grid(7))
    curve_z = mixing_curve(stresses, pre, Z_AXIS, gaas)
    curve_x = mixing_curve(stresses, pre, X_AXIS, gaas)
    assert strain_xx == pytest.approx(curve_z[:, 0], rel=1e-12)
    assert phh[0] == pytest.approx(curve_z[:, 1], abs=1e-12)
    assert phh[-1] == pytest.approx(curve_x[:, 1], abs=1e-12)


def test_mixing_map_interior_matches_point_projections(gaas):
    # the grid's tr(P rho) product against one project_hgs call per cell,
    # off the z/x edges and off the phi = 0 plane
    pre = biaxial_strain(-0.12, gaas)
    stresses = np.linspace(-2, 2, 7)
    phi = math.radians(30.0)
    thetas, strain_xx, phh = mixing_map(stresses, pre, gaas,
                                        thetas=default_theta_grid(6), phi=phi)
    _, total = uniaxial_sweep(stresses, gaas, pre)
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


def test_axis_unit_vector():
    axis = QuantizationAxis(math.pi / 2, 0.0)
    assert axis.unit_vector == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
    assert np.linalg.norm(QuantizationAxis(0.7, 2.0).unit_vector) \
        == pytest.approx(1.0, rel=1e-15)
