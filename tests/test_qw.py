import dataclasses
import math
import os
import subprocess
import sys
from dataclasses import astuple

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import strainkp
from strainkp import kp_bulk, qw
from strainkp.axis import QuantizationAxis
from strainkp.elasticity import (StrainState, StressTensor,
                                 strain_from_stress, uniaxial_strain,
                                 uniaxial_sweep)
from strainkp.kp_bulk import HBAR2_OVER_2M0, NumericalError, h6_vb
from strainkp.materials import algaas
from strainkp.qw import (DEFAULT_EMULATION_OFFSETS, EmulationOffsets,
                         EnvelopeState, QwGeometry, build_qw_hamiltonian,
                         emulated_transition_energies, envelope_projection,
                         qw_mixing_vs_strain, solve_qw, transition_energy,
                         vb_edge_profile)

ZERO = StrainState()
Z_AXIS = QuantizationAxis(0.0)
X_AXIS = QuantizationAxis(math.pi / 2.0)


def test_geometry_validation():
    with pytest.raises(ValueError):
        QwGeometry(0.0)
    with pytest.raises(ValueError):
        QwGeometry(12.0, grid_points=50)  # even
    with pytest.raises(ValueError):
        QwGeometry(12.0, grid_points=31)  # too coarse
    with pytest.raises(ValueError):
        QwGeometry(12.0, barrier_al_fraction=1.4)


def test_grid_is_symmetric_and_odd():
    geometry = QwGeometry(12.0, barrier_thickness_nm=20.0, grid_points=101)
    z = geometry.grid()
    assert z.size == 101
    assert z[z.size // 2] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(z, -z[::-1])
    assert np.allclose(np.diff(z), geometry.spacing())


def test_hamiltonian_hermitian(table, random_strain):
    geometry = QwGeometry(8.0, barrier_thickness_nm=6.0, grid_points=51)
    for _ in range(3):
        ham = build_qw_hamiltonian(geometry, random_strain(scale=0.005),
                                   table)
        assert np.max(np.abs(ham - ham.conj().T)) < 1e-12


def test_vb_edge_profile_steps_by_vegard_offset(table, gaas):
    geometry = QwGeometry(12.0, barrier_thickness_nm=10.0, grid_points=101)
    z, ev = vb_edge_profile(geometry, table)
    barrier = algaas(0.4, table)
    inside = np.abs(z) <= 6.0
    assert np.all(ev[inside] == gaas.vb_edge)
    assert np.all(ev[~inside] == barrier.vb_edge)
    # the interface step is the interpolated average-edge offset plus the
    # spin-orbit third
    offset = (gaas.ev_av + gaas.delta / 3) \
        - (barrier.ev_av + barrier.delta / 3)
    assert ev[inside][0] - ev[~inside][0] == pytest.approx(offset, abs=1e-14)
    assert offset == pytest.approx(0.236, abs=0.01)


def test_uniform_material_reduces_to_particle_in_a_box(table, gaas):
    # barrier == well: Dirichlet box over the whole domain.  Every band
    # block shares the same sine modes, so the problem splits into exact
    # per-mode levels: a decoupled HH ladder and an LH ladder pushed up
    # by the kinetic coupling to the split-off band (closed-form 2x2).
    geometry = QwGeometry(12.0, barrier_thickness_nm=20.0, grid_points=151)
    ham = build_qw_hamiltonian(geometry, ZERO, table,
                               well=gaas, barrier=gaas)
    numeric = np.sort(np.linalg.eigvalsh(ham))[::-1][:6]
    n_pts = geometry.grid_points
    h = geometry.spacing()
    dso = gaas.delta
    expected = []
    for n in (1, 2, 3):
        lam = (2.0 / h ** 2) * (1.0 - math.cos(n * math.pi / (n_pts + 1)))
        e_hh = gaas.vb_edge \
            - HBAR2_OVER_2M0 * (gaas.gamma1 - 2 * gaas.gamma2) * lam
        q_kin = -2.0 * HBAR2_OVER_2M0 * gaas.gamma2 * lam  # hole picture
        root = math.sqrt(dso ** 2 + 2 * dso * q_kin + 9 * q_kin ** 2)
        e_lh = gaas.vb_edge - HBAR2_OVER_2M0 * gaas.gamma1 * lam \
            + 0.5 * (q_kin - dso + root)
        expected += [e_hh, e_hh, e_lh, e_lh]
    expected = np.sort(expected)[::-1][:6]
    assert numeric == pytest.approx(expected, abs=1e-10)


def test_uniform_sheared_well_splits_into_bulk_modes(table, gaas,
                                                     random_strain):
    # barrier == well under a sheared strain: every band shares the box
    # sine modes, so mode n is exactly the bulk 6x6 at kz^2 = lambda_n.
    # Any sign or ordering difference between the well's R/S entries and
    # the bulk ones breaks the match.
    geometry = QwGeometry(12.0, barrier_thickness_nm=20.0, grid_points=61)
    n_pts = geometry.grid_points
    h = geometry.spacing()
    lam = (2.0 / h ** 2) * (1.0 - np.cos(np.arange(1, n_pts + 1) * math.pi
                                         / (n_pts + 1)))
    for _ in range(3):
        strain = random_strain(scale=0.005)
        ham = build_qw_hamiltonian(geometry, strain, table,
                                   well=gaas, barrier=gaas)
        expected = np.concatenate([
            np.linalg.eigvalsh(h6_vb((0.0, 0.0, math.sqrt(l)), strain, gaas))
            for l in lam])
        assert np.linalg.eigvalsh(ham) == pytest.approx(np.sort(expected),
                                                        abs=1e-10)


@pytest.mark.parametrize("grid_points", [51, 151, 301])
def test_sparse_solve_matches_dense_eigh(table, rng, random_strain,
                                         grid_points):
    # the dense eigh of the dense builder is the oracle of the sparse
    # shift-invert solve: same energies, same doublet character along z
    # and a random axis, orthonormal states, reproducible coefficients.
    # Zero strain has the most symmetry for a start vector to miss.
    axes = (Z_AXIS, QuantizationAxis(rng.uniform(0.0, math.pi),
                                     rng.uniform(0.0, 2.0 * math.pi)))
    strains = [random_strain(scale=0.005)]
    if grid_points < 301:
        strains += [ZERO, random_strain(scale=0.005)]
    for strain in strains:
        geometry = QwGeometry(rng.uniform(3.0, 12.0), barrier_thickness_nm=
                              10.0, grid_points=grid_points)
        ham = build_qw_hamiltonian(geometry, strain, table)
        dim = ham.shape[0]
        energies, vectors = scipy.linalg.eigh(
            ham, subset_by_index=[dim - 4, dim - 1])
        dense = [EnvelopeState(e, v.reshape(6, -1), geometry.grid())
                 for e, v in zip(energies[::-1], vectors[:, ::-1].T)]
        for n_states in (2, 4):
            states = solve_qw(geometry, strain, table, n_states)
            assert [s.energy for s in states] == pytest.approx(
                [s.energy for s in dense[:n_states]], abs=1e-10)
            c = np.array([s.coefficients.ravel() for s in states]).T
            assert np.abs(np.conj(c.T) @ c - np.eye(n_states)).max() < 1e-8
            for j in range(0, n_states, 2):
                for axis in axes:
                    assert astuple(envelope_projection(states[j:j + 2],
                                                       axis)) == \
                        pytest.approx(astuple(envelope_projection(
                            dense[j:j + 2], axis)), abs=1e-10)
            again = solve_qw(geometry, strain, table, n_states)
            assert all(np.array_equal(a.coefficients, b.coefficients)
                       for a, b in zip(states, again))


def _shear_free_strain(rng, xy: bool) -> StrainState:
    """Seeded normal strains, plus a seeded e_xy when ``xy``; never
    e_xz or e_yz."""
    v = rng.uniform(-0.005, 0.005, size=6)
    v[3:5] = 0.0
    if not xy:
        v[5] = 0.0
    return StrainState(*v)


def _assert_same_states(states, reference, axes):
    assert [s.energy for s in states] == pytest.approx(
        [s.energy for s in reference], abs=1e-10)
    for j in range(0, len(states) - 1, 2):
        for axis in axes:
            assert astuple(envelope_projection(states[j:j + 2], axis)) == \
                pytest.approx(astuple(envelope_projection(
                    reference[j:j + 2], axis)), abs=1e-10)


@pytest.mark.parametrize("xy", [False, True], ids=["real", "exy"])
@pytest.mark.parametrize("grid_points", [51, 151])
def test_split_solve_matches_dense_and_6n_path(table, rng, monkeypatch,
                                               grid_points, xy):
    # without e_xz and e_yz the well solves as one 3N block per Kramers
    # pair (real, or complex with e_xy); the dense eigh and the full 6N
    # path are its oracles.  At N = 151 the largest count is checked
    # against the dense oracle only: the 6N ARPACK solve of nearly the
    # whole spectrum takes about 20 s there.
    axes = (Z_AXIS, QuantizationAxis(rng.uniform(0.0, math.pi),
                                     rng.uniform(0.0, 2.0 * math.pi)))
    strain = _shear_free_strain(rng, xy)
    geometry = QwGeometry(rng.uniform(3.0, 12.0), barrier_thickness_nm=10.0,
                          grid_points=grid_points)
    energies, vectors = np.linalg.eigh(
        build_qw_hamiltonian(geometry, strain, table))
    dense = [EnvelopeState(e, v.reshape(6, -1), geometry.grid())
             for e, v in zip(energies[::-1], vectors[:, ::-1].T)]
    dim = 6 * grid_points
    for n_states in (1, 3, 4, dim - 2):
        if n_states == dim - 2 and grid_points > 51 and xy:
            continue  # this count runs the complex block on the 6N path
        states = solve_qw(geometry, strain, table, n_states)
        _assert_same_states(states, dense[:n_states], axes)
        if n_states == dim - 2 and grid_points > 51:
            continue
        with monkeypatch.context() as m:
            m.setattr(qw, "_split_blocks", lambda blocks: None)
            full = solve_qw(geometry, strain, table, n_states)
        _assert_same_states(states, full, axes)


def test_solve_qw_hands_eigsh_the_smallest_exact_block(table, gaas,
                                                       monkeypatch):
    # uniaxial [100] stress: the real 3N block; e_xy alone: the complex 3N
    # block; any e_xz or e_yz: the 6N matrix.  v0 always matches the
    # matrix, since scipy does not check its length.
    seen = []
    eigsh = scipy.sparse.linalg.eigsh

    def record(a, k, **kwargs):
        seen.append((a.shape, a.dtype, k, kwargs["v0"].shape,
                     kwargs["v0"].dtype))
        return eigsh(a, k=k, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", record)
    geometry = QwGeometry(8.0, barrier_thickness_nm=8.0, grid_points=51)
    n = geometry.grid_points
    for strain, dim, dtype, k in (
            (uniaxial_strain(1.0, gaas), 3 * n, np.float64, 2),
            (StrainState(exy=0.003), 3 * n, np.complex128, 2),
            (StrainState(exz=0.003), 6 * n, np.complex128, 4)):
        solve_qw(geometry, strain, table, 4)
        assert seen.pop() == ((dim, dim), dtype, k, (dim,), dtype)


def test_solve_qw_maps_any_scipy_failure(table, monkeypatch):
    def refuse(*args, **kwargs):
        raise TypeError("Cannot use scipy.linalg.eigh for sparse A")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refuse)
    geometry = QwGeometry(8.0, barrier_thickness_nm=8.0, grid_points=51)
    with pytest.raises(NumericalError, match="eigensolve failed"):
        solve_qw(geometry, ZERO, table, 2)


def test_solve_qw_rejects_state_count_out_of_range(table):
    geometry = QwGeometry(8.0, barrier_thickness_nm=8.0, grid_points=51)
    for n_states in (0, 6 * 51 - 1):
        with pytest.raises(ValueError, match="n_states"):
            solve_qw(geometry, ZERO, table, n_states)


def test_solve_qw_rejects_positive_kinetic_matrix(table, gaas):
    # gamma1 < 2 gamma2: the HH kz^2 term turns upward, so no shift is
    # known to lie above the spectrum
    inverted = dataclasses.replace(gaas, gamma2=gaas.gamma1 / 2.0 + 0.5,
                                   name="inverted")
    geometry = QwGeometry(8.0, barrier_thickness_nm=8.0, grid_points=51)
    with pytest.raises(NumericalError, match="negative semidefinite"):
        solve_qw(geometry, ZERO, table, 2, well=inverted)


def _missing_partner(eigsh):
    """eigsh stand-in that drops the Kramers partner of the second pair,
    returning a state of the third pair in its place."""

    def solve(ham, k, **kwargs):
        w, v = eigsh(ham, k=k + 1, **kwargs)
        keep = np.argsort(w)[::-1][[0, 1, 2, 4]]
        return w[keep], v[:, keep]

    return solve


def test_time_reversal_commutes_with_well_hamiltonian(table,
                                                      random_strain):
    geometry = QwGeometry(6.0, barrier_thickness_nm=8.0, grid_points=51)
    # T maps the bands of the split 3N block onto their partners
    t = qw._time_reversal()
    assert not t[np.ix_(qw._KEPT_BANDS, qw._KEPT_BANDS)].any()
    assert not t[np.ix_(qw._PARTNER_BANDS, qw._PARTNER_BANDS)].any()
    u = np.kron(t, np.eye(geometry.grid_points))
    assert np.allclose(u @ np.conj(u), -np.eye(u.shape[0]), atol=1e-15)
    for _ in range(3):
        ham = build_qw_hamiltonian(geometry, random_strain(scale=0.005),
                                   table)
        assert np.abs(u @ np.conj(ham) @ np.conj(u.T) - ham).max() < 1e-12


def test_solve_qw_completes_missed_kramers_partner(table, gaas,
                                                   monkeypatch):
    # ARPACK returned one member of the second pair and a third-pair state
    # for this sheared well (second and third pairs 1.9 meV apart); the
    # time-reversed copies must restore the partner, also when the miss is
    # forced
    geometry = QwGeometry(4.688, barrier_thickness_nm=10.0,
                          barrier_al_fraction=0.214, grid_points=61)
    strain = strain_from_stress(StressTensor(
        -0.2999, -0.3044, 0.4626, 0.2686, -0.1707, -0.1576), gaas)
    ham = build_qw_hamiltonian(geometry, strain, table)
    dense = scipy.linalg.eigvalsh(ham)[:-5:-1]
    energies = [s.energy for s in solve_qw(geometry, strain, table, 4)]
    assert energies == pytest.approx(dense, abs=1e-10)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                        _missing_partner(scipy.sparse.linalg.eigsh))
    energies = [s.energy for s in solve_qw(geometry, strain, table, 4)]
    assert energies == pytest.approx(dense, abs=1e-10)


def test_solve_qw_checks_every_returned_pair(table, random_strain,
                                             monkeypatch):
    # without the time-reversal completion the forced miss splits the
    # second pair, and the pair check must catch it there
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                        _missing_partner(scipy.sparse.linalg.eigsh))
    monkeypatch.setattr(qw, "_time_reversal", lambda: np.eye(6))
    geometry = QwGeometry(8.0, barrier_thickness_nm=8.0, grid_points=51)
    with pytest.raises(NumericalError, match="not degenerate"):
        solve_qw(geometry, random_strain(scale=0.005), table, 4)


def test_import_does_not_load_scipy():
    # scipy is imported inside solve_qw only, so bulk-only runs skip it
    src = os.path.dirname(os.path.dirname(strainkp.__file__))
    code = ("import sys, strainkp, strainkp.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_hole_ground_state_unstrained(table):
    geometry = QwGeometry(12.0, grid_points=151)
    states = solve_qw(geometry, ZERO, table, n_states=4)
    energies = [s.energy for s in states]
    assert energies == sorted(energies, reverse=True)
    assert abs(energies[0] - energies[1]) < 1e-8  # Kramers doublet
    proj = envelope_projection(states[:2], Z_AXIS)
    assert proj.p_hh >= 1.0 - 1e-9
    # localization: nearly all weight within the well plus 2 nm margins
    hgs = states[0]
    inside = np.abs(hgs.z) <= 6.0 + 2.0
    assert hgs.density()[inside].sum() >= 0.95


def test_confinement_monotone_in_thickness(table):
    energies = []
    for t in (4.0, 8.0, 12.0):
        geometry = QwGeometry(t, barrier_thickness_nm=15.0, grid_points=101)
        energies.append(solve_qw(geometry, ZERO, table, 2)[0].energy)
    assert energies[0] < energies[1] < energies[2]


def test_grid_self_convergence(table):
    base = QwGeometry(12.0, grid_points=151)
    fine = QwGeometry(12.0, grid_points=303)
    e1 = solve_qw(base, ZERO, table, 2)[0].energy
    e2 = solve_qw(fine, ZERO, table, 2)[0].energy
    assert abs(e1 - e2) < 4e-4


def test_thickness_trend_under_tension(table, gaas):
    strain = uniaxial_strain(2.0, gaas)
    projections = {}
    for t in (12.0, 4.0):
        geometry = QwGeometry(t, grid_points=151)
        states = solve_qw(geometry, strain, table, 2)
        projections[t] = envelope_projection(states, X_AXIS).p_hh
    assert projections[12.0] > projections[4.0]
    assert projections[4.0] < 0.95  # residual mixing in the thin well
    assert projections[4.0] > 0.5


def test_zero_strain_pure_hh_any_thickness(table):
    for t in (4.0, 8.0):
        geometry = QwGeometry(t, barrier_thickness_nm=12.0, grid_points=101)
        states = solve_qw(geometry, ZERO, table, 2)
        assert envelope_projection(states, Z_AXIS).p_hh >= 1.0 - 1e-9


def test_bulk_limit_as_barrier_offset_vanishes(table, gaas):
    # wide well, thin barriers, 1 meV edge offset: the ground state must
    # approach the bulk band edge
    near = dataclasses.replace(gaas, ev_av=gaas.ev_av - 1e-3, name="near")
    geometry = QwGeometry(50.0, barrier_thickness_nm=8.0, grid_points=301)
    hgs = solve_qw(geometry, ZERO, table, 2, well=gaas, barrier=near)[0]
    assert abs(hgs.energy - gaas.vb_edge) < 5e-4


def test_qw_mixing_vs_strain_tables(table):
    stresses = np.array([-1.0, 0.0, 1.0])
    geometry = QwGeometry(6.0, barrier_thickness_nm=8.0, grid_points=61)
    curves = qw_mixing_vs_strain([geometry], stresses, (X_AXIS, Z_AXIS),
                                 table)
    assert len(curves) == 1
    rows = curves[0]
    assert rows.shape == (3, 7)
    assert rows[1, 1] == pytest.approx(0.25, abs=1e-9)  # HH_z seen from x
    assert rows[2, 1] > rows[1, 1]
    assert rows[1, 4] == pytest.approx(1.0, abs=1e-9)   # ... and from z
    # one solved doublet per stress: the SO weight is axis independent
    assert rows[:, 3] == pytest.approx(rows[:, 6], abs=1e-12)
    only_x = qw_mixing_vs_strain([geometry], stresses, (X_AXIS,), table)
    assert np.array_equal(only_x[0], rows[:, :4])


def test_qw_mixing_vs_strain_keeps_geometry_order(table):
    stresses = np.array([-1.0, 1.0])
    wide = QwGeometry(8.0, barrier_thickness_nm=8.0, grid_points=51)
    narrow = QwGeometry(3.0, barrier_thickness_nm=8.0, grid_points=51)
    curves = qw_mixing_vs_strain([wide, narrow], stresses, (X_AXIS,), table)
    assert len(curves) == 2
    for geometry, rows in zip((wide, narrow), curves):
        alone, = qw_mixing_vs_strain([geometry], stresses, (X_AXIS,), table)
        assert np.array_equal(rows, alone)
    assert not np.array_equal(curves[0], curves[1])


def test_transition_energy_emulation_baseline(table, gaas):
    # at zero strain the HH level sits hh_shift below the edge and the
    # CB cb_shift above, so the transition is eg + cb + hh exactly
    energy = transition_energy(DEFAULT_EMULATION_OFFSETS, ZERO, table)
    assert energy == pytest.approx(gaas.eg + 0.0528 + 0.0091, abs=1e-12)


def test_emulated_transitions_batch_matches_single_points(table, gaas):
    # one batched eigensolve gives bit for bit the per-point bulk doublet
    # formula, so the transition table keeps its bytes
    _, strains = uniaxial_sweep(np.linspace(-2.0, 2.0, 41), gaas)
    batch = emulated_transition_energies(DEFAULT_EMULATION_OFFSETS, strains,
                                         table)
    single = []
    for voigt in strains:
        strain = StrainState(*voigt)
        top = kp_bulk.top_valence_doublet(
            strain, gaas, hh_shift=-DEFAULT_EMULATION_OFFSETS.hh_shift,
            lh_shift=-DEFAULT_EMULATION_OFFSETS.lh_shift)[0]
        single.append(gaas.cb_edge + gaas.ac * strain.trace()
                      + DEFAULT_EMULATION_OFFSETS.cb_shift - top.energy)
        assert transition_energy(DEFAULT_EMULATION_OFFSETS, strain,
                                 table) == single[-1]
    assert np.array_equal(batch, single)


def test_transition_energy_red_shift_under_tension(table, gaas):
    e0 = transition_energy(DEFAULT_EMULATION_OFFSETS, ZERO, table)
    e1 = transition_energy(DEFAULT_EMULATION_OFFSETS,
                           uniaxial_strain(1.5, gaas), table)
    assert e1 < e0 - 0.050


def test_transition_energy_qw_mode(table, gaas):
    geometry = QwGeometry(12.0, grid_points=151)
    hgs = solve_qw(geometry, ZERO, table, 2)[0]
    energy = transition_energy(geometry, ZERO, table)
    assert energy == pytest.approx(gaas.cb_edge - hgs.energy, abs=1e-12)
    assert energy > gaas.eg  # hole confinement increases the gap


def test_transition_energy_rejects_unknown_target(table):
    with pytest.raises(TypeError):
        transition_energy("bogus", ZERO, table)


def test_emulation_offsets_validation():
    with pytest.raises(ValueError):
        EmulationOffsets(float("nan"), 0.0, 0.0)


def test_envelope_projection_requires_degeneracy(table):
    states = solve_qw(QwGeometry(8.0, barrier_thickness_nm=8.0,
                                 grid_points=61), ZERO, table, 4)
    with pytest.raises(ValueError, match="degenerate"):
        envelope_projection((states[0], states[2]), Z_AXIS)
