import math

import numpy as np
import pytest

from strainkp.axis import QuantizationAxis, rotated_basis
from strainkp.elasticity import (StrainState, biaxial_strain, superpose,
                                 uniaxial_strain)
from strainkp.kp_bulk import (ORBITAL_SPIN_LABELS, SpinorState,
                              bloch_orbital_matrix, top_valence_doublet)
from strainkp.optics import (DIPOLE_SWEEP_COLUMNS, DipoleStrengths,
                             RateCalibration, angular_density,
                             dipole_strengths, dipole_sweep, dlp_and_angle,
                             rates)


def basis_state(index):
    vec = np.zeros(8, dtype=complex)
    vec[index] = 1.0
    return SpinorState(vec, energy=0.0)


def hh_z_doublet():
    return basis_state(2), basis_state(5)


def lh_z_doublet():
    return basis_state(3), basis_state(4)


def test_pure_hh_z_strengths_exact():
    s = dipole_strengths(hh_z_doublet())
    assert abs(s.s_x - 0.5) < 1e-12
    assert abs(s.s_y - 0.5) < 1e-12
    assert abs(s.s_z) < 1e-12


def test_pure_lh_z_strengths_exact():
    s = dipole_strengths(lh_z_doublet())
    assert abs(s.s_x - 1.0 / 6.0) < 1e-12
    assert abs(s.s_y - 1.0 / 6.0) < 1e-12
    assert abs(s.s_z - 2.0 / 3.0) < 1e-12


def test_sum_rule_random_strains(gaas, random_strain):
    for _ in range(50):
        doublet = top_valence_doublet(random_strain(), gaas)
        s = dipole_strengths(doublet)
        assert s.s_x + s.s_y + s.s_z == pytest.approx(1.0, abs=1e-9)


def test_doublet_unitary_invariance(gaas, rng):
    strain = superpose(biaxial_strain(-0.12, gaas),
                       uniaxial_strain(-0.7, gaas))
    a, b = top_valence_doublet(strain, gaas)
    base = dipole_strengths((a, b)).as_array()
    pair = np.column_stack([a.coefficients, b.coefficients])
    for _ in range(50):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(m)
        mixed = pair @ u
        remixed = (SpinorState(mixed[:, 0], energy=a.energy),
                   SpinorState(mixed[:, 1], energy=b.energy))
        assert np.max(np.abs(dipole_strengths(remixed).as_array() - base)) \
            < 1e-12


def test_mirror_covariance_swaps_x_and_y(gaas, random_strain):
    for _ in range(25):
        strain = random_strain()
        swapped = StrainState(strain.eyy, strain.exx, strain.ezz,
                              strain.exz, strain.eyz, strain.exy)
        s1 = dipole_strengths(top_valence_doublet(strain, gaas))
        s2 = dipole_strengths(top_valence_doublet(swapped, gaas))
        assert s1.s_x == pytest.approx(s2.s_y, abs=1e-12)
        assert s1.s_y == pytest.approx(s2.s_x, abs=1e-12)
        assert s1.s_z == pytest.approx(s2.s_z, abs=1e-12)


def test_frame_rotation_permutes_strengths():
    frame = np.array([[0.0, 1.0, 0.0],
                      [1.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0]])
    s = dipole_strengths(lh_z_doublet(), frame=frame)
    assert s.s_x == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert s.s_z == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_non_degenerate_doublet_rejected():
    a = basis_state(2)
    b = SpinorState(basis_state(5).coefficients, energy=1.0)
    with pytest.raises(ValueError, match="degenerate"):
        dipole_strengths((a, b))


def test_rates_anchor_points():
    cal = RateCalibration(250.0)
    r = rates(DipoleStrengths(0.5, 0.5, 0.0), cal)
    assert (r.r_x, r.r_y, r.r_z) == pytest.approx((4.0, 4.0, 0.0))
    assert rates(DipoleStrengths(1.0, 0.0, 0.0), cal).r_x \
        == pytest.approx(8.0)
    zero = rates(DipoleStrengths(0.0, 0.0, 0.0), cal)
    assert (zero.r_x, zero.r_y, zero.r_z) == (0.0, 0.0, 0.0)


def test_calibration_validation():
    with pytest.raises(ValueError):
        RateCalibration(0.0)
    with pytest.raises(ValueError):
        DipoleStrengths(-0.1, 0.5, 0.5)


def test_dipole_sweep_rows(gaas):
    pre = biaxial_strain(-0.12, gaas)
    stresses = np.linspace(-2.0, 2.0, 9)
    rows = dipole_sweep(stresses, pre, gaas, RateCalibration(250.0))
    assert rows.shape == (9, len(DIPOLE_SWEEP_COLUMNS))
    mid = rows[4]
    assert mid[1] == pytest.approx(0.5, abs=1e-12)   # s_x
    assert mid[2] == pytest.approx(0.5, abs=1e-12)   # s_y
    assert mid[3] == pytest.approx(0.0, abs=1e-12)   # s_z
    assert mid[4] == pytest.approx(4.0, abs=1e-9)    # 1/250 ps
    # compression end: x-polarized dipole dominates
    comp = rows[0]
    assert comp[1] > 0.8
    assert comp[1] > 5 * max(comp[2], comp[3])
    # tension end: x suppressed, y slightly favored over z
    ten = rows[-1]
    assert ten[1] < 0.01
    assert ten[2] > 0.5 > ten[3] > 0.0


def test_dlp_tie_at_pure_hh_z():
    pol = dlp_and_angle(DipoleStrengths(0.5, 0.5, 0.0))
    assert pol.degree == 0.0
    assert pol.angle_deg == 0.0
    assert pol.tie


def test_dlp_pure_x_dipole():
    pol = dlp_and_angle(DipoleStrengths(1.0, 0.0, 0.0))
    assert pol.degree == 1.0
    assert pol.angle_deg == 0.0
    assert not pol.tie


def test_dlp_hh_x_like_polarized_along_y():
    pol = dlp_and_angle(DipoleStrengths(0.0, 0.54, 0.46))
    assert pol.degree == 1.0  # z not collected
    assert pol.angle_deg == 90.0


def test_dlp_ideal_collection_dilutes_degree():
    s = DipoleStrengths(0.0, 0.54, 0.46)
    top = dlp_and_angle(s, in_plane_only=True)
    ideal = dlp_and_angle(s, in_plane_only=False)
    assert ideal.degree < top.degree
    assert ideal.angle_deg == top.angle_deg


def test_dlp_bounds_and_extremes(rng):
    for _ in range(200):
        sx, sy, sz = rng.uniform(0.0, 1.0, size=3)
        pol = dlp_and_angle(DipoleStrengths(sx, sy, sz))
        assert 0.0 <= pol.degree <= 1.0
        if min(sx, sy) == 0.0 and max(sx, sy) > 0:
            assert pol.degree == 1.0


def test_angular_density_hh_z_donut():
    density = angular_density(basis_state(2))
    assert density.integrate() == pytest.approx(1.0, abs=1e-3)
    polar = density.density[0]          # theta near 0
    equator = density.density[density.theta.size // 2]
    assert np.max(polar) < 1e-3 * np.max(equator)
    assert np.std(equator) < 1e-12 * np.max(equator)  # phi uniform


def test_angular_density_lh_x_dumbbell(gaas):
    lh_x = rotated_basis(QuantizationAxis(math.pi / 2.0))[3]
    density = angular_density(lh_x)
    i_eq = density.theta.size // 2
    along_x = density.density[i_eq, 0]
    along_y = density.density[i_eq, density.phi.size // 4]
    near_pole = density.density[0].max()
    assert along_x > 3 * along_y
    assert along_x > 3 * near_pole


def test_angular_density_so_uniform():
    density = angular_density(basis_state(6))
    expected = 1.0 / (4.0 * math.pi)
    assert np.max(np.abs(density.density - expected)) < 1e-12


def test_angular_density_matches_pointwise_oracle(rng):
    # sum over spins of |sum_o c_o Y_o|^2, one grid point at a time
    u = bloch_orbital_matrix()
    norm = math.sqrt(3.0 / (4.0 * math.pi))
    for _ in range(5):
        c = np.zeros(8, dtype=complex)
        c[2:] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        c /= np.linalg.norm(c)
        density = angular_density(SpinorState(c), n_theta=7, n_phi=11)
        v = dict(zip(ORBITAL_SPIN_LABELS, u @ c))
        expected = np.empty((7, 11))
        for i, th in enumerate(density.theta):
            for j, ph in enumerate(density.phi):
                y = (norm * math.sin(th) * math.cos(ph),
                     norm * math.sin(th) * math.sin(ph),
                     norm * math.cos(th))
                expected[i, j] = sum(
                    abs(sum(v[f"{o}_{spin}"] * y_o
                            for o, y_o in zip("XYZ", y))) ** 2
                    for spin in ("up", "dn"))
        assert np.max(np.abs(density.density - expected)) \
            <= 1e-15 * np.max(expected)


def test_angular_density_rejects_cb_state():
    with pytest.raises(ValueError, match="VB"):
        angular_density(basis_state(0))


def test_polarization_monotone_under_tension(gaas):
    pre = biaxial_strain(-0.12, gaas)
    rows = dipole_sweep(np.linspace(0.0, 2.0, 41), pre, gaas)
    degrees = [dlp_and_angle(DipoleStrengths(*row[1:4])).degree
               for row in rows]
    assert np.all(np.diff(degrees) >= -1e-9)
    assert degrees[-1] > 0.95
