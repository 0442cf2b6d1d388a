import dataclasses
import math

import numpy as np
import pytest

from strainkp.axis import QuantizationAxis
from strainkp.elasticity import StrainState, uniaxial_strain
from strainkp.kp_bulk import HBAR2_OVER_2M0, h6_vb
from strainkp.materials import algaas
from strainkp.qw import (DEFAULT_EMULATION_OFFSETS, EmulationOffsets,
                         QwGeometry, build_qw_hamiltonian,
                         envelope_projection, qw_mixing_vs_strain, solve_qw,
                         transition_energy, vb_edge_profile)

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
    curves = qw_mixing_vs_strain([6.0], stresses, (X_AXIS, Z_AXIS), table,
                                 barrier_thickness_nm=8.0, grid_points=61)
    rows = curves[6.0]
    assert rows.shape == (3, 7)
    assert rows[1, 1] == pytest.approx(0.25, abs=1e-9)  # HH_z seen from x
    assert rows[2, 1] > rows[1, 1]
    assert rows[1, 4] == pytest.approx(1.0, abs=1e-9)   # ... and from z
    # one solved doublet per stress: the SO weight is axis independent
    assert rows[:, 3] == pytest.approx(rows[:, 6], abs=1e-12)
    only_x = qw_mixing_vs_strain([6.0], stresses, (X_AXIS,), table,
                                 barrier_thickness_nm=8.0, grid_points=61)
    assert np.array_equal(only_x[6.0], rows[:, :4])


def test_transition_energy_emulation_baseline(table, gaas):
    # at zero strain the HH level sits hh_shift below the edge and the
    # CB cb_shift above, so the transition is eg + cb + hh exactly
    energy = transition_energy(DEFAULT_EMULATION_OFFSETS, ZERO, table)
    assert energy == pytest.approx(gaas.eg + 0.0528 + 0.0091, abs=1e-12)


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
