import math
from dataclasses import astuple

import numpy as np
import pytest

from oracles import rotated_basis
from strainkp.axis import QuantizationAxis, mixing_curve, project_hgs
from strainkp.elasticity import (StrainState, biaxial_strain, superpose,
                                 uniaxial_strain)
from strainkp.kp_bulk import build_h8, eigensolve, top_valence_doublet
from strainkp.optics import (DIPOLE_SWEEP_COLUMNS, DipoleStrengths,
                             RateCalibration, angular_density,
                             dipole_strengths, dipole_sweep, dlp_and_angle,
                             rates)
from strainkp.qw import QwGeometry, qw_mixing_vs_strain
from strainkp.states import (ORBITAL_SPIN_LABELS, SpinorState,
                             bloch_orbital_matrix)


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


def test_frame_strengths_match_product_basis_oracle(gaas, random_strain,
                                                    rng):
    # s_n = (1/2) sum over the doublet and both spins of |n . v|^2, with v
    # the (X, Y, Z) products of the Bloch-orbital table, for random
    # orthogonal frames (reflections included)
    u = bloch_orbital_matrix()
    for _ in range(20):
        doublet = top_valence_doublet(random_strain(), gaas)
        frame, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        # the VB columns of the table times the six VB coefficients
        products = u[:, 2:] @ np.column_stack([s.coefficients
                                               for s in doublet])
        expected = [0.5 * sum(abs(n @ products[rows, j]) ** 2
                              for rows in ([1, 2, 3], [5, 6, 7])
                              for j in range(2))
                    for n in frame]
        s = dipole_strengths(doublet, frame=frame).as_array()
        assert s == pytest.approx(expected, abs=1e-14)
        assert s.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("frame", [
    [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    np.diag([2.0, 1.0, 1.0]),
    np.eye(3)[:2],
    [[1.0, 0.0, 0.0], [0.0, 1.0, math.nan], [0.0, 0.0, 1.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, math.inf], [0.0, 0.0, 1.0]],
], ids=["skewed", "scaled", "two_rows", "nan", "inf"])
def test_non_orthogonal_frame_rejected(gaas, frame):
    # such a frame once gave strengths that do not sum to one; a NaN entry
    # passed the orthogonality test (NaN compares false), and an inf one
    # overflowed in frame @ frame.T before it
    doublet = top_valence_doublet(uniaxial_strain(1.0, gaas), gaas)
    with pytest.raises(ValueError, match="orthogonal"):
        dipole_strengths(doublet, frame=frame)


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
    # a lifetime that is not finite, or whose rate scale 1e3/(tau/2)
    # overflows (or divides by zero once tau/2 underflows)
    for lifetime in (-1.0, math.nan, math.inf, 1e-320, 5e-324):
        with pytest.raises(ValueError):
            RateCalibration(lifetime)
    assert math.isfinite(RateCalibration(1e-300).ghz_per_strength)
    with pytest.raises(ValueError):
        DipoleStrengths(-0.1, 0.5, 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", range(3))
def test_dipole_strengths_reject_non_finite_values(bad, field):
    # a NaN passes v < 0, and dlp_and_angle then reports a nan degree
    values = [0.5, 0.5, 0.5]
    values[field] = bad
    with pytest.raises(ValueError, match="s_[xyz] must be finite"):
        DipoleStrengths(*values)


def test_dipole_sweep_rows(gaas):
    pre = biaxial_strain(-0.12, gaas)
    stresses = np.linspace(-2.0, 2.0, 9)
    rows = dipole_sweep(stresses, pre, gaas, RateCalibration(250.0))
    assert rows.shape == (9, len(DIPOLE_SWEEP_COLUMNS))
    assert dipole_sweep([], pre, gaas).shape == (0, len(DIPOLE_SWEEP_COLUMNS))
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


def test_empty_sweeps_keep_their_width(table, gaas):
    # like dipole_sweep, every sweep of no stress is an empty table of
    # its documented width
    pre = biaxial_strain(-0.12, gaas)
    axes = (QuantizationAxis(0.0), QuantizationAxis(math.pi / 2.0))
    assert [c.shape for c in mixing_curve([], pre, axes, gaas)] \
        == [(0, 4), (0, 4)]
    geometry = QwGeometry(6.0, barrier_thickness_nm=8.0, grid_points=51)
    (rows, energies), = qw_mixing_vs_strain([geometry], [], axes, table)
    assert rows.shape == (0, 7)
    assert energies.shape == (0,)


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


def test_angular_density_grid_is_built_once_and_read_only():
    first = angular_density(basis_state(2))
    second = angular_density(basis_state(3))
    for name in ("theta", "phi", "weights"):
        a, b = getattr(first, name), getattr(second, name)
        assert np.array_equal(a, b)
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    again = angular_density(basis_state(2))
    assert np.array_equal(again.density, first.density)


@pytest.mark.parametrize("name", ["n_theta", "n_phi"])
@pytest.mark.parametrize("bad", [0, -3, 2.5, 90.0, True, "90", None])
def test_angular_density_rejects_grid_sizes_that_are_not_counts(name, bad):
    # 0 cells divided by zero, -3 gave an empty density, 2.5 a grid
    # spaced pi/2.5 and True one row
    with pytest.raises(ValueError, match=name):
        angular_density(basis_state(2), **{name: bad})


def test_angular_density_takes_numpy_integer_grid_sizes():
    density = angular_density(basis_state(2), n_theta=np.int64(3),
                              n_phi=np.int32(1))
    assert density.density.shape == (3, 1)


def test_angular_density_of_a_doublet_adds_its_states(gaas, rng):
    # the doublet's density is the sum of its states' and does not
    # change when the degenerate pair is remixed
    a, b = top_valence_doublet(uniaxial_strain(0.7, gaas), gaas)
    pair = angular_density((a, b))
    assert pair.integrate() == pytest.approx(2.0, abs=2e-3)
    assert np.abs(pair.density - angular_density(a).density
                  - angular_density(b).density).max() \
        <= 1e-15 * pair.density.max()
    u, _ = np.linalg.qr(rng.standard_normal((2, 2))
                        + 1j * rng.standard_normal((2, 2)))
    mixed = np.stack([a.coefficients, b.coefficients], -1) @ u
    remixed = angular_density([SpinorState(c) for c in mixed.T])
    assert np.abs(remixed.density - pair.density).max() \
        <= 1e-14 * pair.density.max()


def test_angular_density_rejects_cb_state():
    with pytest.raises(ValueError, match="VB"):
        angular_density(basis_state(0))


@pytest.mark.parametrize("read", [
    lambda d: np.array(astuple(project_hgs(d, QuantizationAxis(0.7, 0.3)))),
    lambda d: dipole_strengths(d).as_array(),
    lambda d: angular_density(d, n_theta=7, n_phi=11).density,
], ids=["project_hgs", "dipole_strengths", "angular_density"])
def test_hole_states_are_six_vb_or_eight_cb_free_components(gaas, read):
    # one rule for every call that takes hole states: the six VB rows as
    # they are, eight (the full basis of eigensolve) with the CB rows
    # empty, and nothing else
    strain = StrainState(0.003, -0.001, -0.002, 0.0005, -0.001, 0.002)
    full = eigensolve(build_h8((0.0, 0.0, 0.0), strain, gaas))[2:4]
    vb = [SpinorState(s.coefficients[2:], energy=s.energy) for s in full]
    assert np.array_equal(read(full), read(vb))
    # a CB admixture keeps the pair degenerate and orthonormal
    mixed = []
    for i, s in enumerate(full):
        c = math.sqrt(0.99) * s.coefficients
        c[i] += 0.1
        mixed.append(SpinorState(c, energy=s.energy))
    with pytest.raises(ValueError, match="8 with no CB weight; got 8"):
        read(mixed)
    five = [SpinorState(np.eye(5)[i], energy=0.0) for i in range(2)]
    with pytest.raises(ValueError, match="need 6 VB components.*got 5"):
        read(five)


def test_polarization_monotone_under_tension(gaas):
    pre = biaxial_strain(-0.12, gaas)
    rows = dipole_sweep(np.linspace(0.0, 2.0, 41), pre, gaas)
    degrees = [dlp_and_angle(DipoleStrengths(*row[1:4])).degree
               for row in rows]
    assert np.all(np.diff(degrees) >= -1e-9)
    assert degrees[-1] > 0.95
