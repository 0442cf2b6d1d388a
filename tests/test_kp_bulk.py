import dataclasses
import math

import numpy as np
import pytest

from strainkp.elasticity import StrainState, biaxial_strain, uniaxial_strain
from strainkp.kp_bulk import (HBAR2_OVER_2M0, NonHermitianError, SpinorState,
                              Wavevector, build_h8, dispersion, eigensolve,
                              h4_topmost, h6_vb, top_valence_doublet,
                              validate_doublet)

K0 = (0.0, 0.0, 0.0)
ZERO = StrainState()


def vb_energies(h6):
    return np.sort(np.linalg.eigvalsh(h6))[::-1]


def test_unstrained_gamma_point_spectrum(gaas):
    h8 = build_h8(K0, ZERO, gaas)
    ev = gaas.vb_edge
    cb = np.sort(np.linalg.eigvalsh(h8))[::-1]
    assert cb[:2] == pytest.approx([ev + gaas.eg] * 2, abs=1e-12)
    assert cb[2:6] == pytest.approx([ev] * 4, abs=1e-12)
    assert cb[6:] == pytest.approx([ev - gaas.delta] * 2, abs=1e-12)


def test_cb_block_decoupled(gaas, random_strain):
    for _ in range(20):
        h8 = build_h8((0.3, -0.2, 0.1), random_strain(), gaas)
        assert np.all(h8[:2, 2:] == 0.0)
        assert np.all(h8[2:, :2] == 0.0)
        assert h8[0, 0] == h8[1, 1]


def test_cb_hydrostatic_shift(gaas):
    strain = biaxial_strain(-0.5, gaas)
    h8 = build_h8(K0, strain, gaas)
    expected = gaas.vb_edge + gaas.eg + gaas.ac * strain.trace()
    assert h8[0, 0].real == pytest.approx(expected, rel=1e-14)


def test_biaxial_strain_block_structure(gaas):
    strain = biaxial_strain(-0.8, gaas)
    h4 = h4_topmost(K0, strain, gaas)
    # R and S vanish: the 4x4 must be diagonal
    assert np.max(np.abs(h4 - np.diag(np.diag(h4)))) < 1e-15
    qe = -0.5 * gaas.b * (strain.exx + strain.eyy - 2 * strain.ezz)
    split = abs(h4[0, 0] - h4[1, 1])
    assert split == pytest.approx(2 * abs(qe), rel=1e-12)


def test_biaxial_lh_level_against_analytic_two_by_two(gaas):
    # LH couples to SO through sqrt(2)Q; closed-form eigenvalue as oracle
    strain = biaxial_strain(-0.8, gaas)
    qe = -0.5 * gaas.b * (strain.exx + strain.eyy - 2 * strain.ezz)
    shift = gaas.av * strain.trace()
    dso = gaas.delta
    root = math.sqrt(dso ** 2 + 2 * dso * qe + 9 * qe ** 2)
    e_hh = gaas.vb_edge + shift - qe
    e_lh = gaas.vb_edge + shift + 0.5 * (qe - dso + root)
    e_so = gaas.vb_edge + shift + 0.5 * (qe - dso - root)
    numeric = vb_energies(h6_vb(K0, strain, gaas))
    expected = np.sort([e_hh, e_hh, e_lh, e_lh, e_so, e_so])[::-1]
    assert numeric == pytest.approx(expected, abs=1e-12)


def test_uniaxial_r_nonzero_s_zero(gaas):
    strain = uniaxial_strain(1.0, gaas)
    h8 = build_h8(K0, strain, gaas)
    r_entry = h8[2, 4]
    assert abs(r_entry.imag) < 1e-15
    assert abs(r_entry.real) > 1e-4
    assert abs(h8[2, 3]) < 1e-15  # S position
    re = 0.5 * math.sqrt(3) * gaas.b * (strain.exx - strain.eyy)
    assert r_entry.real == pytest.approx(-re, rel=1e-12)  # electron picture


def test_h4_is_submatrix_of_h8(gaas, random_strain):
    for _ in range(10):
        strain = random_strain()
        k = (0.1, -0.3, 0.2)
        assert np.array_equal(h4_topmost(k, strain, gaas),
                              build_h8(k, strain, gaas)[2:6, 2:6])


def test_hermiticity_random(gaas, rng, random_strain):
    worst = 0.0
    for _ in range(200):
        k = rng.uniform(-0.5, 0.5, size=3)
        h8 = build_h8(k, random_strain(), gaas)
        worst = max(worst, np.max(np.abs(h8 - h8.conj().T)))
    assert worst < 1e-13


def test_strain_linearity_of_entries(gaas, random_strain):
    k = (0.2, 0.1, -0.3)
    base = build_h8(k, ZERO, gaas)
    for _ in range(10):
        strain = random_strain(scale=0.004)
        doubled = StrainState(*(2.0 * strain.as_voigt()))
        lhs = build_h8(k, doubled, gaas) - base
        rhs = 2.0 * (build_h8(k, strain, gaas) - base)
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_eigensolve_diagonal_matrix():
    d = np.diag([3.0, 1.0, 2.0])
    states = eigensolve(d.astype(complex))
    assert [s.energy for s in states] == [3.0, 2.0, 1.0]
    assert np.allclose(abs(states[0].coefficients), [1, 0, 0])
    assert np.allclose(abs(states[1].coefficients), [0, 0, 1])


def test_eigensolve_residuals_random_hermitian(rng):
    for _ in range(50):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (a + a.conj().T) / 2
        states = eigensolve(h)
        for s in states:
            resid = np.linalg.norm(h @ s.coefficients
                                   - s.energy * s.coefficients)
            assert resid < 1e-10
        vecs = np.column_stack([s.coefficients for s in states])
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(8))) < 1e-10
        energies = [s.energy for s in states]
        assert energies == sorted(energies, reverse=True)


def test_eigensolve_phase_convention(rng):
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (a + a.conj().T) / 2
    for s in eigensolve(h):
        lead = s.coefficients[np.flatnonzero(
            np.abs(s.coefficients) > 1e-10)[0]]
        assert lead.imag == pytest.approx(0.0, abs=1e-12)
        assert lead.real > 0


def test_eigensolve_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NonHermitianError):
        eigensolve(bad)


def test_vb_trace_identity(gaas, random_strain):
    for _ in range(20):
        h6 = h6_vb((0.1, 0.0, -0.2), random_strain(), gaas)
        states = eigensolve(h6)
        assert sum(s.energy for s in states) \
            == pytest.approx(np.trace(h6).real, abs=1e-10)


def test_kramers_degeneracy_at_gamma(gaas, random_strain):
    for _ in range(100):
        energies = [s.energy for s in eigensolve(
            h6_vb(K0, random_strain(), gaas))]
        for i in (0, 2, 4):
            assert abs(energies[i] - energies[i + 1]) < 1e-9


def test_top_valence_doublet_contract(gaas):
    strain = uniaxial_strain(0.8, gaas)
    a, b = top_valence_doublet(strain, gaas)
    validate_doublet(a, b)
    assert a.coefficients.shape == (8,)
    assert np.all(a.coefficients[:2] == 0.0)


def test_spinor_norm_enforced():
    with pytest.raises(ValueError, match="norm"):
        SpinorState(np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0]))


def test_dispersion_single_point_matches_eigensolve(gaas):
    energies = dispersion([Wavevector()], ZERO, gaas)
    expected = [s.energy for s in eigensolve(build_h8(K0, ZERO, gaas))]
    assert energies[0] == pytest.approx(expected, abs=1e-12)


def test_dispersion_isotropic_masses_spherical_variant(gaas):
    # with gamma3 = gamma2 the in-plane HH/LH masses are 1/(g1 -+ 2 g2)
    p = dataclasses.replace(gaas, gamma3=gaas.gamma2)
    ks = np.linspace(-0.05, 0.05, 11)
    for direction in ("x", "y"):
        path = [Wavevector(**{f"k{direction}": float(k)}) for k in ks]
        energies = dispersion(path, ZERO, p)
        hh_fit = np.polyfit(ks, energies[:, 2], 2)[0]
        lh_fit = np.polyfit(ks, energies[:, 4], 2)[0]
        hh_expected = -HBAR2_OVER_2M0 * (p.gamma1 - 2 * p.gamma2)
        lh_expected = -HBAR2_OVER_2M0 * (p.gamma1 + 2 * p.gamma2)
        assert hh_fit == pytest.approx(hh_expected, rel=5e-3)
        assert lh_fit == pytest.approx(lh_expected, rel=5e-3)


def test_dispersion_anisotropic_mass_under_uniaxial_tension(gaas):
    # topmost band under x tension is HH_x: heavy along x, light along y
    strain = uniaxial_strain(1.5, gaas)
    ks = np.linspace(-0.03, 0.03, 9)
    curv = {}
    for direction in ("x", "y"):
        path = [Wavevector(**{f"k{direction}": float(k)}) for k in ks]
        energies = dispersion(path, strain, gaas)
        assert np.all(np.diff(energies, axis=1) <= 0)  # descending rows
        curv[direction] = np.polyfit(ks, energies[:, 2], 2)[0]
    assert curv["x"] < 0 and curv["y"] < 0
    assert abs(curv["x"]) < abs(curv["y"])
