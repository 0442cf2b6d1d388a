import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strainkp import kp_bulk
from strainkp.axis import QuantizationAxis, _project
from strainkp.elasticity import (StrainState, biaxial_strain, uniaxial_strain,
                                 uniaxial_sweep)
from strainkp.kp_bulk import (HBAR2_OVER_2M0, NonHermitianError, SpinorState,
                              Wavevector, build_h8, dispersion, eigensolve,
                              h4_topmost, h6_vb, top_valence_doublet,
                              validate_doublet)
from strainkp.optics import _orbital_weights

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


def test_bloch_orbital_table_is_built_once_and_read_only():
    # one shared read-only table; the public function returns a fresh copy
    table = kp_bulk._BLOCH_ORBITALS
    assert not table.flags.writeable
    fresh = kp_bulk.bloch_orbital_matrix()
    assert np.array_equal(fresh, table) and fresh.flags.writeable
    fresh[:] = 0.0
    assert np.array_equal(kp_bulk.bloch_orbital_matrix(), table)
    assert np.allclose(table.conj().T @ table, np.eye(8), atol=1e-15)


def test_time_reversal_is_an_exact_signed_permutation():
    # U is the rounded product of the Bloch table, so T psi is exact
    u = kp_bulk._TIME_REVERSAL
    bloch = kp_bulk.bloch_orbital_matrix()
    product = (np.conj(bloch.T) @ np.kron([[0.0, 1.0], [-1.0, 0.0]],
                                          np.eye(4))
               @ np.conj(bloch))[kp_bulk.VB_SLICE, kp_bulk.VB_SLICE]
    assert u.dtype == np.float64 and not u.flags.writeable
    assert np.abs(u - product).max() <= 1e-15
    assert set(np.unique(u)) <= {-1.0, 0.0, 1.0}
    assert not np.signbit(u[u == 0.0]).any()
    assert np.array_equal(u @ u.T, np.eye(6))
    assert np.array_equal(u @ np.conj(u), -np.eye(6))


def _sweep_voigt(gaas, kind):
    """Voigt strains (43, 6) of a +-2 GPa uniaxial [100] sweep at the
    default -0.12 GPa biaxial prestress: as is (split, real 3x3), with a
    varying e_xy (split, complex) or with e_xz and e_yz (sheared, 6x6).
    The shears ramp through zero at the middle point, which so takes
    the real 3x3 path in every sweep."""
    _, voigt = uniaxial_sweep(np.linspace(-2.0, 2.0, 43), gaas,
                              biaxial_strain(-0.12, gaas))
    ramp = np.linspace(-2e-3, 2e-3, 43)
    if kind in ("exy", "sheared"):
        voigt[:, 5] = ramp
    if kind == "sheared":
        voigt[:, 3], voigt[:, 4] = ramp[::-1], 0.5 * ramp
    return voigt


@pytest.mark.parametrize("kind", ["uniaxial", "exy", "sheared"])
def test_sweep_doublets_match_single_points_bit_for_bit(gaas, kind):
    voigt = _sweep_voigt(gaas, kind)
    paths = {"uniaxial": [0], "exy": [0, 1], "sheared": [0, 2]}[kind]
    kinds = kp_bulk._kramers_kinds(-kp_bulk._vb_hole(K0, voigt, gaas))
    assert np.unique(kinds).tolist() == paths
    energies, states = kp_bulk._doublet_stack(voigt, gaas)
    for e, psi, v in zip(energies, states, voigt):
        single = top_valence_doublet(StrainState(*v), gaas)
        assert np.array_equal([s.energy for s in single], e)
        assert np.array_equal(np.column_stack(
            [s.coefficients for s in single]), psi)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["uniaxial", "exy", "sheared"]),
       order=st.permutations(range(43)), size=st.integers(1, 43))
def test_doublets_do_not_depend_on_the_batch(gaas, kind, order, size):
    # any permutation or sub-batch of a sweep gives the same bits as the
    # whole sweep at every point
    voigt = _sweep_voigt(gaas, kind)
    energies, states = kp_bulk._doublet_stack(voigt, gaas)
    pick = np.array(order[:size])
    sub_energies, sub_states = kp_bulk._doublet_stack(voigt[pick], gaas)
    assert np.array_equal(sub_energies, energies[pick])
    assert np.array_equal(sub_states, states[pick])


def _shear_free_voigt(rng, n, xy):
    """Seeded Voigt strains (n, 6) without e_xz and e_yz, and with e_xy
    only when ``xy``."""
    voigt = rng.uniform(-0.01, 0.01, size=(n, 6))
    voigt[:, 3:5] = 0.0
    if not xy:
        voigt[:, 5] = 0.0
    return voigt


def _strengths(states):
    """(s_x, s_y, s_z), last axis, of doublets (..., 8, 2)."""
    return 0.5 * _orbital_weights(states, np.eye(3))


def _projector(states):
    return states @ np.conj(np.swapaxes(states, -1, -2))


@pytest.mark.parametrize("xy", [False, True], ids=["real", "exy"])
def test_split_doublets_match_the_6x6_path(gaas, rng, monkeypatch, xy):
    # without e_xz and e_yz the doublet sweep solves the kept 3x3 block
    # (real, or complex with e_xy) and takes each partner by time reversal;
    # the 6x6 eigh of the same stack is its oracle, also at k along z and
    # with the emulation shifts
    axes = (QuantizationAxis(0.0), QuantizationAxis(math.pi / 2.0),
            QuantizationAxis(rng.uniform(0.0, math.pi),
                             rng.uniform(0.0, 2.0 * math.pi)))
    voigt = _shear_free_voigt(rng, 200, xy)
    for k, shifts in ((K0, {}), ((0.0, 0.0, 0.4), {}),
                      (K0, {"hh_shift": -0.0091, "lh_shift": -0.01})):
        kept = kp_bulk._kramers_block(-kp_bulk._vb_hole(k, voigt, gaas))
        assert kept.shape == (200, 3, 3)
        assert kept.dtype == (np.complex128 if xy else np.float64)
        energies, states = kp_bulk._doublet_stack(voigt, gaas, k, **shifts)
        with monkeypatch.context() as m:
            m.setattr(kp_bulk, "_kramers_block", lambda h: None)
            ref_energies, ref_states = kp_bulk._doublet_stack(
                voigt, gaas, k, **shifts)
        assert np.abs(energies - ref_energies).max() < 1e-12
        assert np.abs(_projector(states) - _projector(ref_states)).max() \
            < 1e-10
        for axis in axes:
            assert np.abs(_project(states, axis)
                          - _project(ref_states, axis)).max() < 1e-10
        assert np.abs(_strengths(states) - _strengths(ref_states)).max() \
            < 1e-10
        # psi lives in the kept bands, T psi in their partners
        vb = states[:, kp_bulk.VB_SLICE]
        assert not vb[:, kp_bulk._PARTNER_BANDS, 0].any()
        assert not vb[:, kp_bulk._KEPT_BANDS, 1].any()


def test_sheared_doublets_take_the_6x6_path(gaas, rng, monkeypatch):
    # any e_xz or e_yz, or k with both an in-plane and a z component, makes
    # S couple the two sets: no split, one 6x6 eigh of the stack
    calls = []
    eigh = kp_bulk._eigh_descending

    def record(h, *args):
        calls.append(h.shape)
        return eigh(h, *args)

    monkeypatch.setattr(kp_bulk, "_eigh_descending", record)
    kp_bulk._doublet_stack(_shear_free_voigt(rng, 5, True), gaas)
    assert calls == []
    for column, k in ((3, K0), (4, K0), (None, (0.3, 0.0, 0.4))):
        voigt = _shear_free_voigt(rng, 5, True)
        if column is not None:
            voigt[:, column] = rng.uniform(-0.01, 0.01, size=5)
        assert kp_bulk._kramers_block(-kp_bulk._vb_hole(k, voigt, gaas)) \
            is None
        energies, states = kp_bulk._doublet_stack(voigt, gaas, k)
        assert calls.pop() == (5, 6, 6)
        assert energies.shape == (5, 2) and states.shape == (5, 8, 2)


def test_split_path_keeps_the_hermitian_check(gaas, monkeypatch):
    # a shear-free stack with one non-Hermitian diagonal entry still splits,
    # and the split path must reject it as the 6x6 path does
    vb_hole = kp_bulk._vb_hole

    def broken(*args):
        h = vb_hole(*args)
        h[..., 0, 0] += 1e-9j
        return h

    monkeypatch.setattr(kp_bulk, "_vb_hole", broken)
    voigt = uniaxial_strain(0.5, gaas).as_voigt()
    assert kp_bulk._kramers_block(-broken(K0, voigt, gaas)) is not None
    with pytest.raises(NonHermitianError, match="not Hermitian"):
        kp_bulk._doublet_stack(voigt, gaas)


def test_spinor_norm_enforced():
    with pytest.raises(ValueError, match="norm"):
        SpinorState(np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0]))


def test_dispersion_single_point_matches_eigensolve(gaas, rng,
                                                   random_strain):
    energies = dispersion([Wavevector()], ZERO, gaas)
    expected = [s.energy for s in eigensolve(build_h8(K0, ZERO, gaas))]
    assert energies[0] == pytest.approx(expected, abs=1e-12)
    # a path is solved as one stack, bit for bit the eigenvalues of
    # build_h8 at each point, for array and Wavevector paths alike
    for _ in range(5):
        strain = random_strain(scale=0.005)
        path = rng.uniform(-0.5, 0.5, size=(9, 3))
        single = [[s.energy for s in eigensolve(build_h8(k, strain, gaas))]
                  for k in path]
        assert np.array_equal(dispersion(path, strain, gaas), single)
        assert np.array_equal(
            dispersion([Wavevector(*k) for k in path], strain, gaas), single)
    assert dispersion([], ZERO, gaas).shape == (0, 8)
    with pytest.raises(ValueError, match="three components"):
        dispersion([(0.1, 0.2)], ZERO, gaas)


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
