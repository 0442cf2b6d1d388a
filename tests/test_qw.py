import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import strainkp
from oracles import CUBIC_GROUP, axis_of, strain_of
from strainkp import _blocktri, cli, kp_bulk, qw
from strainkp import states as states_mod
from strainkp.axis import QuantizationAxis, project_hgs
from strainkp.elasticity import (StrainState, StressTensor, biaxial_strain,
                                 strain_from_stress, uniaxial_strain,
                                 uniaxial_sweep)
from strainkp.kp_bulk import HBAR2_OVER_2M0, h6_vb
from strainkp.materials import algaas
from strainkp.qw import (DEFAULT_EMULATION_OFFSETS, EmulationOffsets,
                         QwGeometry, build_qw_hamiltonian,
                         emulated_transition_energies, envelope_projection,
                         qw_mixing_vs_strain, solve_qw, transition_energy,
                         vb_edge_profile)
from strainkp.states import Doublet, EnvelopeState, NumericalError

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
    with pytest.raises(ValueError, match="barrier thickness must be positive"):
        QwGeometry(8.0, barrier_thickness_nm=0.0)
    # a total w + 2b that is not finite, also from two finite lengths
    for well, barrier in ((12.0, 1e308), (1e308, 1e308), (math.inf, 20.0)):
        with pytest.raises(ValueError, match="finite"):
            QwGeometry(well, barrier_thickness_nm=barrier)


@pytest.mark.parametrize("grid_points", [51, 301])
def test_geometry_rejects_wells_of_fewer_than_three_nodes(table,
                                                         grid_points):
    # with 10 nm barriers w = 2h at w = 40 nm / (N - 1): just below it only
    # the centre node lies inside, which was solved as a one-node well
    # (E0 = -7.04 eV for 1e-300 nm); just above it both neighbours do
    thinnest = 40.0 / (grid_points - 1)
    for well_nm in (1e-300, 0.99 * thinnest):
        with pytest.raises(ValueError, match=r"well_thickness_nm: a .* nm "
                           r"well is thinner than two grid spacings "
                           r"\(2h = .* nm\) and holds 1 node\(s\)"):
            QwGeometry(well_nm, barrier_thickness_nm=10.0,
                       grid_points=grid_points)
    geometry = QwGeometry(1.01 * thinnest, barrier_thickness_nm=10.0,
                          grid_points=grid_points)
    assert np.flatnonzero(geometry.inside()).tolist() == [
        grid_points // 2 - 1, grid_points // 2, grid_points // 2 + 1]
    z, ev = vb_edge_profile(geometry, table)
    assert np.count_nonzero(ev == table["GaAs"].vb_edge) == 3


@pytest.mark.parametrize("grid_points", [301.0, np.float64(301.0), True],
                         ids=["float", "numpy_float", "bool"])
def test_geometry_rejects_non_integer_grid_points(grid_points):
    # a float grid size used to pass and fail deep inside the solver
    with pytest.raises(ValueError, match="grid_points"):
        QwGeometry(12.0, grid_points=grid_points)


@pytest.mark.parametrize("n_states", [2.0, np.float64(2.0), True],
                         ids=["float", "numpy_float", "bool"])
def test_solve_qw_rejects_non_integer_state_count(table, n_states):
    geometry = QwGeometry(8.0, barrier_thickness_nm=8.0, grid_points=51)
    with pytest.raises(ValueError, match="n_states"):
        solve_qw(geometry, ZERO, table, n_states)


def test_numpy_integer_sizes_are_accepted(table):
    geometry = QwGeometry(8.0, barrier_thickness_nm=8.0,
                          grid_points=np.int64(51))
    states = solve_qw(geometry, ZERO, table, np.int32(2))
    assert len(states) == 2 and states[0].coefficients.shape == (6, 51)


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
    # barrier == well (no Al): Dirichlet box over the whole domain.  Every
    # band block shares the same sine modes, so the problem splits into
    # exact per-mode levels: a decoupled HH ladder and an LH ladder pushed
    # up by the kinetic coupling to the split-off band (closed-form 2x2).
    geometry = QwGeometry(12.0, barrier_thickness_nm=20.0,
                          barrier_al_fraction=0.0, grid_points=151)
    ham = build_qw_hamiltonian(geometry, ZERO, table)
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
    # barrier == well (no Al) under a sheared strain: every band shares
    # the box sine modes, so mode n is exactly the bulk 6x6 at
    # kz^2 = lambda_n.  Any sign or ordering difference between the well's
    # R/S entries and the bulk ones breaks the match.
    geometry = QwGeometry(12.0, barrier_thickness_nm=20.0,
                          barrier_al_fraction=0.0, grid_points=61)
    n_pts = geometry.grid_points
    h = geometry.spacing()
    lam = (2.0 / h ** 2) * (1.0 - np.cos(np.arange(1, n_pts + 1) * math.pi
                                         / (n_pts + 1)))
    for _ in range(3):
        strain = random_strain(scale=0.005)
        ham = build_qw_hamiltonian(geometry, strain, table)
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
    # and a random axis for every full pair, orthonormal states,
    # reproducible coefficients.  Odd counts end inside a pair.  Zero
    # strain has the most symmetry for a start vector to miss.
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
        for n_states in (1, 2, 3, 4):
            states = solve_qw(geometry, strain, table, n_states)
            assert [s.energy for s in states] == pytest.approx(
                [s.energy for s in dense[:n_states]], abs=1e-10)
            c = np.array([s.coefficients.ravel() for s in states]).T
            assert np.abs(np.conj(c.T) @ c - np.eye(n_states)).max() < 1e-8
            for j in range(0, n_states - 1, 2):
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
    # path are its oracles
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
    for n_states in (1, 3, 4, dim):
        states = solve_qw(geometry, strain, table, n_states)
        _assert_same_states(states, dense[:n_states], axes)
        with monkeypatch.context() as m:
            # every entry counts as a coupling: the 6N path
            m.setattr(kp_bulk, "_COUPLINGS", np.ones((6, 6), dtype=bool))
            full = solve_qw(geometry, strain, table, n_states)
        _assert_same_states(states, full, axes)


@pytest.mark.parametrize("xy", [False, True], ids=["real", "exy"])
@pytest.mark.parametrize("n_states", [3, 4])
def test_split_solve_returns_kramers_pairs_of_dense_states(
        table, rng, monkeypatch, n_states, xy):
    # the split path returns each kept-block Ritz vector psi and its
    # partner T psi as they are, and never solves a 6-band block; the
    # dense eigh of the dense builder is the oracle of energies and pair
    # projectors, and an unpaired last state must lie in its dense pair
    top = qw._top_eigenvectors

    def only_3_bands(diag, couplings, sigma, k):
        assert diag.shape[-2:] == (3, 3), "a shear-free well took 6N"
        return top(diag, couplings, sigma, k)

    monkeypatch.setattr(qw, "_top_eigenvectors", only_3_bands)
    strain = _shear_free_strain(rng, xy)
    geometry = QwGeometry(rng.uniform(3.0, 12.0), barrier_thickness_nm=10.0,
                          grid_points=51)
    energies, vectors = np.linalg.eigh(
        build_qw_hamiltonian(geometry, strain, table))
    states = solve_qw(geometry, strain, table, n_states)
    assert len(states) == n_states
    assert [s.energy for s in states] == pytest.approx(
        energies[:-n_states - 1:-1], abs=1e-10)
    c = np.array([s.coefficients.ravel() for s in states]).T
    assert np.abs(np.conj(c.T) @ c - np.eye(n_states)).max() < 1e-12
    for j in range(0, n_states, 2):
        dense = vectors[:, [-1 - j, -2 - j]]
        dense_pair = dense @ np.conj(dense.T)
        pair = c[:, j:j + 2]
        if pair.shape[1] == 2:
            assert np.abs(pair @ np.conj(pair.T) - dense_pair).max() < 1e-8
        else:
            assert np.abs(dense_pair @ pair - pair).max() < 1e-8


def test_solve_qw_solves_the_smallest_exact_block(table, gaas,
                                                  monkeypatch):
    # uniaxial [100] stress: the real 3N block, one vector per Kramers
    # pair; e_xy alone: the complex 3N block; any e_xz or e_yz: the 6N
    # matrix, one vector per state, real for e_xz alone and complex for
    # e_yz; the couplings are real in every case
    seen = []
    top = qw._top_eigenvectors

    def record(diag, couplings, sigma, k):
        seen.append((diag.shape, diag.dtype, couplings.shape,
                     couplings.dtype, k))
        return top(diag, couplings, sigma, k)

    monkeypatch.setattr(qw, "_top_eigenvectors", record)
    geometry = QwGeometry(8.0, barrier_thickness_nm=8.0, grid_points=51)
    n = geometry.grid_points
    for strain, m, dtype, k in (
            (uniaxial_strain(1.0, gaas), 3, np.float64, 2),
            (StrainState(exy=0.003), 3, np.complex128, 2),
            (StrainState(exz=0.003), 6, np.float64, 4),
            (StrainState(eyz=0.003), 6, np.complex128, 4)):
        solve_qw(geometry, strain, table, 4)
        assert seen.pop() == ((n, m, m), dtype, (n - 1, m, m), np.float64,
                              k)


def _solved_and_assembled(geometry, strain, table, monkeypatch):
    """The blocks ``solve_qw`` hands its eigensolver, and their oracle:
    the assembled 6N blocks, restricted to the kept bands if no entry
    couples them to their partners, and real if their imaginary part is
    exactly zero; each as one stack of the diagonal blocks and the
    couplings."""
    seen = []
    top = qw._top_eigenvectors

    def record(diag, couplings, sigma, k):
        assert couplings.dtype == np.float64
        seen.append(np.concatenate([diag, couplings]))
        return top(diag, couplings, sigma, k)

    with monkeypatch.context() as m:
        m.setattr(qw, "_top_eigenvectors", record)
        solve_qw(geometry, strain, table, 2)
    (solved,) = seen
    oracle = np.concatenate(qw._assemble(
        *qw._node_blocks(geometry, strain, table)))
    if not oracle[..., kp_bulk._COUPLINGS].any():
        oracle = oracle[..., kp_bulk._KEPT_BANDS[:, None],
                        kp_bulk._KEPT_BANDS]
    return solved, oracle if oracle.imag.any() else oracle.real


def _bits(blocks):
    # uint64 words, so -0.0 and +0.0 differ
    return np.ascontiguousarray(blocks).view(np.uint64)


@pytest.mark.parametrize("grid_points", [51, 301])
# one_node: about the thinnest well QwGeometry accepts, one node on each
# side of the centre node; with 10 nm barriers w = 2h at w = 40 nm / (N - 1)
@pytest.mark.parametrize("well_nm", [8.0, None], ids=["well", "one_node"])
@pytest.mark.parametrize("kind, dtype", [("uniaxial", np.float64),
                                         ("biaxial", np.float64),
                                         ("exy", np.complex128)])
def test_split_first_blocks_have_the_bits_of_the_assembled_split(
        table, gaas, monkeypatch, kind, dtype, well_nm, grid_points):
    # the 3N blocks assembled from the materials' kept bands are the kept
    # bands of the assembled 6N blocks, word for word, real or complex
    strain = {"uniaxial": uniaxial_strain(0.8, gaas),
              "biaxial": biaxial_strain(-0.6, gaas),
              "exy": StrainState(0.002, -0.001, 0.0005, exy=0.003)}[kind]
    thinnest = well_nm is None
    geometry = QwGeometry(40.4 / (grid_points - 1) if thinnest else well_nm,
                          barrier_thickness_nm=10.0, grid_points=grid_points)
    if thinnest:
        assert np.count_nonzero(geometry.inside()) == 3
    kept, oracle = _solved_and_assembled(geometry, strain, table,
                                         monkeypatch)
    assert kept.dtype == oracle.dtype == dtype
    assert kept.shape == oracle.shape == (2 * grid_points - 1, 3, 3)
    assert np.array_equal(_bits(kept), _bits(oracle))


@pytest.mark.parametrize("strain, dtype", [
    (StrainState(exz=0.003), np.float64),
    (StrainState(eyz=-0.002), np.complex128)], ids=["exz", "eyz"])
def test_sheared_well_does_not_split_first(table, monkeypatch, strain,
                                           dtype):
    # e_xz alone leaves every block exactly real: the 6N path runs real
    geometry = QwGeometry(8.0, barrier_thickness_nm=10.0, grid_points=51)
    solved, oracle = _solved_and_assembled(geometry, strain, table,
                                           monkeypatch)
    assert solved.dtype == oracle.dtype == dtype
    assert solved.shape == oracle.shape == (101, 6, 6)
    assert np.array_equal(_bits(solved), _bits(oracle))


def test_split_is_decided_on_the_materials_on_the_grid(table, gaas,
                                                       monkeypatch):
    # a well material with d = 0 does not couple the two band sets under
    # e_xz, the barrier does: the well splits exactly when no barrier node
    # lies on the grid, as the assembled blocks do
    d_free = {**table, "GaAs": dataclasses.replace(gaas, d=0.0)}
    strain = StrainState(0.001, 0.001, -0.002, exz=0.003)
    # the barrier, vegard(0.4, d-free GaAs, AlAs), keeps a d of its own
    assert algaas(0.4, d_free).d != 0.0
    thin = QwGeometry(12.0, barrier_thickness_nm=0.1, grid_points=51)
    assert np.all(np.abs(thin.grid()) <= 6.0)
    thick = QwGeometry(12.0, barrier_thickness_nm=4.0, grid_points=51)
    for geometry, bands in ((thin, 3), (thick, 6)):
        solved, oracle = _solved_and_assembled(geometry, strain, d_free,
                                               monkeypatch)
        assert solved.shape == oracle.shape == (101, bands, bands)
        assert np.array_equal(_bits(solved), _bits(oracle))


def test_shear_free_solve_memory_is_bounded(table, gaas):
    # the split is decided before assembly, so a shear-free solve never
    # builds the (3N - 2, 6, 6) complex stack: the tracemalloc peak of one
    # 12 nm solve at N = 603 measured 1.57 MB (3.30 MB when the 6N stack
    # was assembled and scanned first)
    geometry = QwGeometry(12.0, grid_points=603)
    strain = uniaxial_strain(0.5, gaas)
    solve_qw(geometry, strain, table, 2)
    tracemalloc.start()
    try:
        solve_qw(geometry, strain, table, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def _dense_site_major(diag, upper):
    n, m = diag.shape[:2]
    dense = np.zeros((n, m, n, m), dtype=np.result_type(diag, upper))
    i = np.arange(n)
    dense[i, :, i] = diag
    dense[i[:-1], :, i[1:]] = upper
    dense[i[1:], :, i[:-1]] = np.conj(np.swapaxes(upper, -1, -2))
    return dense.reshape(n * m, n * m)


@pytest.mark.parametrize("complex_blocks", [False, True],
                         ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 3, 50, 51, 61])
def test_cyclic_reduction_solve_matches_dense(rng, n, complex_blocks):
    # a seeded Hermitian block-tridiagonal matrix shifted to be positive
    # definite; odd and even n cover the end nodes of every level, n <= 8
    # only the dense last block, and m = 6 the sheared well's blocks
    def draw(shape):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if complex_blocks else a

    for m in (3, 6):
        diag, upper = draw((n, m, m)), draw((n - 1, m, m))
        diag = diag + np.conj(np.swapaxes(diag, -1, -2))
        dense = _dense_site_major(diag, upper)
        shift = np.linalg.eigvalsh(dense).max() + 0.5
        diag, upper = shift * np.eye(m) - diag, -upper
        b = draw((n, m, 4))
        factor = _blocktri._cr_factor(diag, upper)
        x = _blocktri._cr_solve(factor, b)
        expected = np.linalg.solve(_dense_site_major(diag, upper),
                                   b.reshape(m * n, 4))
        assert x.dtype == expected.dtype
        assert np.abs(x.reshape(m * n, 4) - expected).max() \
            <= 1e-12 * np.abs(expected).max()
        if complex_blocks:
            # the real embedding of the factor solves the same system on
            # [Re b; Im b] node by node, the reordered last block included
            embedded = _blocktri._from_real(_blocktri._cr_solve(
                _blocktri._embed_factor(factor, m), _blocktri._to_real(b)))
            assert np.abs(embedded - x).max() <= 1e-13 * np.abs(x).max()


def test_real_embedding_is_exact_algebra(rng):
    a = rng.standard_normal((7, 6, 6)) + 1j * rng.standard_normal((7, 6, 6))
    e = _blocktri._embed(a)
    assert e.dtype == np.float64 and e.shape == (7, 12, 12)
    # E(A^H) = E(A)^T bit for bit: the solver's transposed views
    assert np.array_equal(_blocktri._embed(kp_bulk._herm(a)),
                          np.swapaxes(e, 1, 2))
    x = rng.standard_normal((7, 6, 5)) + 1j * rng.standard_normal((7, 6, 5))
    stacked = _blocktri._to_real(x)
    assert np.array_equal(stacked, np.concatenate([x.real, x.imag], axis=1))
    assert np.array_equal(_blocktri._from_real(stacked), x)
    scale = (np.abs(a) @ np.abs(x)).max()
    assert np.abs(_blocktri._from_real(e @ stacked) - a @ x).max() \
        <= 1e-15 * scale


@pytest.mark.parametrize("n", [2, 51])
def test_cyclic_reduction_rejects_indefinite_matrix(rng, n):
    diag = rng.standard_normal((n, 3, 3))
    diag = diag + np.swapaxes(diag, -1, -2)
    upper = rng.standard_normal((n - 1, 3, 3))
    dense = _dense_site_major(diag, upper)
    # one eigenvalue of the shifted matrix is negative
    shift = np.linalg.eigvalsh(dense).max() - 1e-3
    with pytest.raises(NumericalError, match="not positive definite"):
        _blocktri._cr_factor(shift * np.eye(3) - diag, -upper)


def test_orthonormal_basis_of_ill_conditioned_block(rng):
    # Cholesky QR for a well-conditioned block; a rank-deficient one makes
    # its factorization fail and takes the Householder QR; both span the
    # columns
    y = rng.standard_normal((300, 6))
    for block in (y, np.hstack([y, y[:, :2]])):
        q = _blocktri._orthonormal(block)
        assert np.abs(q.T @ q - np.eye(q.shape[1])).max() < 1e-12
        assert np.abs(q @ (q.T @ y) - y).max() < 1e-12


def _random_block_tridiagonal(rng, n, m, complex_blocks):
    """Hermitian diagonal blocks (n, m, m), real or complex, and real
    symmetric couplings (n - 1, m, m) of a random positive definite
    block-tridiagonal matrix."""
    diag = rng.standard_normal((n, m, m))
    if complex_blocks:
        diag = diag + 1j * rng.standard_normal((n, m, m))
    diag = diag + kp_bulk._herm(diag)
    couplings = rng.standard_normal((n - 1, m, m))
    couplings = couplings + np.swapaxes(couplings, 1, 2)
    lowest = np.linalg.eigvalsh(_dense_site_major(diag, couplings)).min()
    return diag + (1.0 - lowest) * np.eye(m), couplings


@pytest.mark.parametrize("complex_blocks", [False, True],
                         ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 3, 9, 17, 33])
def test_top_eigenvectors_match_dense_eigh(rng, n, complex_blocks):
    # zero to three levels of cyclic reduction above the dense last block
    # (n <= 8 has none), the block sizes of the split and the sheared
    # well, and complex blocks through the embedded path, whose real
    # couplings act on both halves of the layout
    for m in (3, 6):
        diag, couplings = _random_block_tridiagonal(rng, n, m,
                                                    complex_blocks)
        dense = _dense_site_major(diag, couplings)
        energies, vectors = np.linalg.eigh(dense)
        k = min(4, m * n)
        theta, x = _blocktri._top_eigenvectors(diag, couplings,
                                               energies[-1] + 0.5, k)
        assert x.shape == (n, m, k) and x.dtype == dense.dtype
        assert np.abs(theta - energies[:-k - 1:-1]).max() <= 1e-10
        x = x.reshape(m * n, k)
        assert np.abs(np.conj(x.T) @ x - np.eye(k)).max() < 1e-12
        assert np.linalg.norm(dense @ x - x * theta, axis=0).max() <= 1e-10
        top = vectors[:, :-k - 1:-1]
        assert np.abs(x @ np.conj(x.T) - top @ np.conj(top.T)).max() < 1e-8


def test_top_eigenvectors_rejects_couplings_not_real_symmetric(rng):
    diag, couplings = _random_block_tridiagonal(rng, 9, 3, True)
    skewed = couplings.copy()
    skewed[4, 0, 1] += 1e-3
    for bad in (skewed, couplings.astype(complex)):
        with pytest.raises(ValueError, match="real symmetric"):
            _blocktri._top_eigenvectors(diag, bad, 100.0, 2)


def test_well_couplings_are_real_symmetric(table, gaas, rng):
    # the solver's contract: for any stress the kz^2 matrix
    # A = h6(kz) - h6(0) of a material has an exactly zero imaginary part
    # and is exactly symmetric, so the couplings -(A_i + A_{i+1}) / 2 are
    for _ in range(200):
        strain = strain_from_stress(
            StressTensor(*rng.uniform(-2.0, 2.0, 6)), gaas)
        kz = (0.0, 0.0, rng.uniform(0.5, 50.0))
        for material in (gaas, algaas(rng.uniform(0.0, 1.0), table)):
            a = h6_vb(kz, strain, material) \
                - h6_vb((0.0, 0.0, 0.0), strain, material)
            assert not a.imag.any()
            assert np.array_equal(a.real, a.real.T)
    geometry = QwGeometry(8.0, barrier_thickness_nm=8.0, grid_points=51)
    _, couplings = qw._assemble(*qw._node_blocks(geometry, strain, table))
    assert couplings.dtype == np.float64
    assert np.array_equal(couplings, np.swapaxes(couplings, 1, 2))


def test_solve_qw_rejects_shift_inside_spectrum(table, monkeypatch):
    # a shift below the top of the spectrum, as a broken shift proof
    # would give, must fail instead of returning interior states
    monkeypatch.setattr(qw, "_SHIFT_MARGIN_EV", -0.5)
    geometry = QwGeometry(8.0, barrier_thickness_nm=8.0, grid_points=51)
    with pytest.raises(NumericalError, match="not positive definite"):
        solve_qw(geometry, ZERO, table, 2)


def test_solve_qw_rejects_state_count_out_of_range(table):
    geometry = QwGeometry(8.0, barrier_thickness_nm=8.0, grid_points=51)
    for n_states in (0, 6 * 51 + 1):
        with pytest.raises(ValueError, match="n_states"):
            solve_qw(geometry, ZERO, table, n_states)


def test_solve_qw_rejects_positive_kinetic_matrix(table, gaas):
    # gamma1 < 2 gamma2: the HH kz^2 term turns upward, so no shift is
    # known to lie above the spectrum
    inverted = {**table, "GaAs": dataclasses.replace(
        gaas, gamma2=gaas.gamma1 / 2.0 + 0.5, name="inverted")}
    geometry = QwGeometry(8.0, barrier_thickness_nm=8.0, grid_points=51)
    with pytest.raises(NumericalError, match="negative semidefinite"):
        solve_qw(geometry, ZERO, inverted, 2)


def _missing_partner(top):
    """Solver stand-in that drops the Kramers partner of the second pair,
    returning a state of the third pair in its place."""

    def solve(diag, couplings, sigma, k):
        theta, x = top(diag, couplings, sigma, k + 1)
        return theta[[0, 1, 2, 4]], x[..., [0, 1, 2, 4]]

    return solve


def test_time_reversal_commutes_with_well_hamiltonian(table,
                                                      random_strain):
    geometry = QwGeometry(6.0, barrier_thickness_nm=8.0, grid_points=51)
    # T maps the bands of the split 3N block onto their partners
    t = states_mod._TIME_REVERSAL
    kept, partners = kp_bulk._KEPT_BANDS, kp_bulk._PARTNER_BANDS
    assert not t[np.ix_(kept, kept)].any()
    assert not t[np.ix_(partners, partners)].any()
    u = np.kron(t, np.eye(geometry.grid_points))
    assert np.allclose(u @ np.conj(u), -np.eye(u.shape[0]), atol=1e-15)
    for _ in range(3):
        ham = build_qw_hamiltonian(geometry, random_strain(scale=0.005),
                                   table)
        assert np.abs(u @ np.conj(ham) @ np.conj(u.T) - ham).max() < 1e-12


def _close_pairs_well(gaas):
    """A sheared N = 61 well whose second and third pairs lie 1.9 meV
    apart."""
    geometry = QwGeometry(4.688, barrier_thickness_nm=10.0,
                          barrier_al_fraction=0.214, grid_points=61)
    return geometry, strain_from_stress(StressTensor(
        -0.2999, -0.3044, 0.4626, 0.2686, -0.1707, -0.1576), gaas)


def test_sheared_solve_matches_dense_on_close_pairs(table, gaas):
    # a single-vector Krylov solver (ARPACK) once returned one member of
    # the second pair and a third-pair state for this sheared well; the
    # block solve must find both pairs whole
    geometry, strain = _close_pairs_well(gaas)
    ham = build_qw_hamiltonian(geometry, strain, table)
    dense = scipy.linalg.eigvalsh(ham)[:-5:-1]
    energies = [s.energy for s in solve_qw(geometry, strain, table, 4)]
    assert energies == pytest.approx(dense, abs=1e-10)


def test_sheared_solve_memory_is_bounded(table, gaas):
    # the embedded factor keeps one copy of each multiplier (its
    # conjugate transpose is a transposed view), drops each complex level
    # as it embeds it, the real couplings are never embedded, and the
    # Rayleigh-Ritz products are released before the filter's solves: the
    # tracemalloc peak of this four-state solve measured 907 KB (924 KB
    # with embedded couplings; 1024 KB while the Rayleigh-Ritz products
    # stayed alive)
    geometry, strain = _close_pairs_well(gaas)
    solve_qw(geometry, strain, table, 4)
    tracemalloc.start()
    try:
        solve_qw(geometry, strain, table, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1e6


def test_shear_free_solves_never_embed(table, gaas, tmp_path, monkeypatch):
    # real blocks keep their real products, so every `strainkp qw` run
    # keeps its bytes
    def refuse(a):
        raise AssertionError("a real block was embedded")

    monkeypatch.setattr(_blocktri, "_embed", refuse)
    geometry = QwGeometry(8.0, barrier_thickness_nm=8.0, grid_points=51)
    for strain in (uniaxial_strain(0.5, gaas), biaxial_strain(-0.3, gaas)):
        assert len(solve_qw(geometry, strain, table, 4)) == 4
    config = tmp_path / "qw.ini"
    config.write_text("[qw]\nthicknesses_nm = 6\nbarrier_thickness_nm = 10\n"
                      "grid_points = 51\nsweep_steps = 3\n", encoding="utf-8")
    assert cli.main(["qw", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0


def test_solve_qw_checks_every_returned_pair(table, random_strain,
                                             monkeypatch):
    # a sheared solve returns its Ritz pairs as solved, so a forced miss
    # splits the second pair, and the pair check must catch it there
    monkeypatch.setattr(qw, "_top_eigenvectors",
                        _missing_partner(qw._top_eigenvectors))
    geometry = QwGeometry(8.0, barrier_thickness_nm=8.0, grid_points=51)
    with pytest.raises(NumericalError, match="not degenerate"):
        solve_qw(geometry, random_strain(scale=0.005), table, 4)


def test_start_block_is_fixed_uniform_and_full_rank():
    a, b = _blocktri._start_block(903, 9), _blocktri._start_block(903, 9)
    assert a.shape == (903, 9) and a.dtype == np.float64
    assert np.array_equal(a, b)
    assert -1.0 <= a.min() and a.max() < 1.0
    assert np.linalg.cond(a) < 1e3
    # a complex block pairs the columns of a real one twice as wide
    c = _blocktri._start_block(366, 24).view(complex)
    assert c.shape == (366, 12)
    assert np.array_equal(c, _blocktri._start_block(366, 24).view(complex))
    assert np.linalg.cond(c) < 1e3
    # the first rows of a taller block are the smaller block: entry i
    # hashes index i alone
    assert np.array_equal(_blocktri._start_block(1806, 9)[:903], a)


def test_runs_load_no_scipy_or_numpy_random(tmp_path):
    # no module imports scipy or numpy.random: bulk-only runs, a
    # shear-free `strainkp qw` and a sheared well solve all run without
    # them
    src = os.path.dirname(os.path.dirname(strainkp.__file__))
    config = tmp_path / "run.ini"
    config.write_text("[qw]\nthicknesses_nm = 6\nbarrier_thickness_nm = 10\n"
                      "grid_points = 51\nsweep_steps = 3\n", encoding="utf-8")
    out = tmp_path / "out"
    runs = ("",
            f"strainkp.cli.main(['qw', '--config', {str(config)!r}, "
            f"'--out', {str(out)!r}]); ",
            "strainkp.solve_qw(strainkp.QwGeometry(8.0, 8.0, grid_points=51), "
            "strainkp.StrainState(exz=0.003), "
            "strainkp.default_parameter_table()); ")
    for run in runs:
        code = (f"import sys, strainkp, strainkp.cli; {run}"
                "print(sorted(m for m in sys.modules "
                "if m.startswith(('scipy', 'numpy.random'))))")
        printed = subprocess.run([sys.executable, "-c", code], check=True,
                                 capture_output=True, text=True,
                                 env={**os.environ, "PYTHONPATH": src}).stdout
        assert printed.strip() == "[]"
    assert (out / "qw_mixing_6nm.csv").stat().st_size > 0


# full stress tensors (GPa) whose shears are each often exactly zero, so
# the Kramers split takes all four paths: the 3N block real (no shear) or
# complex (s_xy), the 6N matrix real (s_xz alone) or complex (s_yz)
_SHEAR_GPA = st.just(0.0) | st.floats(-0.5, 0.5)
_STRESSES = st.tuples(*[st.floats(-1.0, 1.0)] * 3, *[_SHEAR_GPA] * 3)


def _kramers_path(strain):
    """The (bands, dtype) the Kramers split solves at k = 0 for a strain:
    e_yz or e_xz couple the two band sets, e_xy or e_yz make the blocks
    complex."""
    bands = 3 if strain.eyz == 0.0 and strain.exz == 0.0 else 6
    real = strain.exy == 0.0 and strain.eyz == 0.0
    return bands, np.float64 if real else np.complex128


def _assert_pairs_match(energies, vectors, ref_energies, ref_vectors):
    """Energies within 1e-10 eV of the dense reference, descending, and
    the projector of each pair within 1e-8 of the reference's, for every
    pair at least 1 meV from its neighbours (a projector of a pair closer
    than that to another is not determined to 1e-8 by a 1e-11 eV
    residual)."""
    count = len(energies)
    assert np.abs(energies - ref_energies[:count]).max() <= 1e-10
    gaps = -np.diff(ref_energies)
    for j in range(0, count - 1, 2):
        if gaps[j + 1] < 1e-3 or (j and gaps[j - 1] < 1e-3):
            continue
        pair, ref = vectors[:, j:j + 2], ref_vectors[:, j:j + 2]
        assert np.abs(pair @ np.conj(pair.T) - ref @ np.conj(ref.T)).max() \
            <= 1e-8


@settings(max_examples=40, deadline=None)
@given(stress=_STRESSES, well_nm=st.floats(3.0, 12.0),
       barrier_nm=st.floats(5.0, 10.0), al=st.floats(0.2, 0.5),
       grid_points=st.sampled_from([51, 61, 81]),
       n_states=st.sampled_from([2, 4]))
def test_random_stress_wells_match_dense_eigh(table, gaas, kramers_solves,
                                              stress, well_nm, barrier_nm, al,
                                              grid_points, n_states):
    strain = strain_from_stress(StressTensor(*stress), gaas)
    geometry = QwGeometry(well_nm, barrier_thickness_nm=barrier_nm,
                          barrier_al_fraction=al, grid_points=grid_points)
    with kramers_solves() as seen:
        states = solve_qw(geometry, strain, table, n_states)
    bands, dtype = _kramers_path(strain)
    count = n_states // 2 if bands == 3 else n_states
    assert seen == [((grid_points, bands, count), dtype)]
    energies, vectors = np.linalg.eigh(
        build_qw_hamiltonian(geometry, strain, table))
    _assert_pairs_match(np.array([s.energy for s in states]),
                        np.array([s.coefficients.ravel() for s in states]).T,
                        energies[::-1], vectors[:, ::-1])


@settings(max_examples=100, deadline=None)
@given(stress=_STRESSES)
def test_random_stress_bulk_doublets_match_eigensolve(gaas, kramers_solves,
                                                      stress):
    # the draws of the well test on the bulk top doublet
    strain = strain_from_stress(StressTensor(*stress), gaas)
    with kramers_solves() as seen:
        doublet = kp_bulk.top_valence_doublet(strain, gaas)
    bands, dtype = _kramers_path(strain)
    assert seen == [((bands, 1 if bands == 3 else 2), dtype)]
    reference = kp_bulk.eigensolve(h6_vb((0.0, 0.0, 0.0), strain, gaas))
    _assert_pairs_match(
        np.array([s.energy for s in doublet]),
        np.array([s.coefficients for s in doublet]).T,
        np.array([s.energy for s in reference]),
        np.array([s.coefficients for s in reference]).T)


# the 16 operations of D4h, the point group of a [001] well: those of O_h
# that keep the z axis (x <-> y, and every sign flip)
D4H = [g for g in CUBIC_GROUP if abs(g[2, 2]) == 1.0]


@settings(max_examples=10, deadline=None)
@given(stress=st.tuples(*[st.floats(-1.0, 1.0)] * 3,
                        *[st.floats(-0.5, 0.5)] * 3),
       well_nm=st.floats(3.0, 12.0),
       grid_points=st.sampled_from(range(51, 62, 2)),
       theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2.0 * math.pi))
def test_well_is_invariant_under_d4h(table, gaas, stress, well_nm,
                                     grid_points, theta, phi):
    # e -> g e g^T keeps the four topmost energies within 1e-12 eV, and
    # the ground doublet's weights along g n within 1e-10 of those along
    # n, for a doublet at least 1 meV from the next (closer, the weights
    # rest on the solver's 1e-11 eV residual, not on the symmetry); runs
    # at N = 51 ... 61 and 101 spread by at most 1.7e-14 eV and 7.4e-14
    assert len({tuple(g.ravel()) for g in D4H}) == 16
    geometry = QwGeometry(well_nm, barrier_thickness_nm=8.0,
                          grid_points=grid_points)
    voigt = strain_from_stress(StressTensor(*stress), gaas).as_voigt()
    e = np.array([[voigt[0], voigt[5], voigt[4]],
                  [voigt[5], voigt[1], voigt[3]],
                  [voigt[4], voigt[3], voigt[2]]])
    n = QuantizationAxis(theta, phi).unit_vector
    states = solve_qw(geometry, strain_of(e), table, 4)
    energies = np.array([s.energy for s in states])
    weights = astuple(envelope_projection(states[:2], axis_of(n)))
    for g in D4H:
        turned = solve_qw(geometry, strain_of(g @ e @ g.T), table, 4)
        assert np.abs([s.energy for s in turned] - energies).max() <= 1e-12
        if energies[1] - energies[2] >= 1e-3:
            assert astuple(envelope_projection(turned[:2], axis_of(g @ n))) \
                == pytest.approx(weights, abs=1e-10)


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
    # the barrier is the table's "AlAs", replaced by a near-GaAs, at x = 1
    near = {**table, "AlAs": dataclasses.replace(gaas, ev_av=gaas.ev_av - 1e-3,
                                                 name="near")}
    geometry = QwGeometry(50.0, barrier_thickness_nm=8.0,
                          barrier_al_fraction=1.0, grid_points=301)
    hgs = solve_qw(geometry, ZERO, near, 2)[0]
    assert abs(hgs.energy - gaas.vb_edge) < 5e-4


def test_qw_mixing_vs_strain_tables(table):
    stresses = np.array([-1.0, 0.0, 1.0])
    geometry = QwGeometry(6.0, barrier_thickness_nm=8.0, grid_points=61)
    curves = qw_mixing_vs_strain([geometry], stresses, (X_AXIS, Z_AXIS),
                                 table)
    assert len(curves) == 1
    rows, energies = curves[0]
    assert rows.shape == (3, 7)
    assert energies.shape == (3,)
    assert energies[1] == solve_qw(geometry, ZERO, table, 2)[0].energy
    assert rows[1, 1] == pytest.approx(0.25, abs=1e-9)  # HH_z seen from x
    assert rows[2, 1] > rows[1, 1]
    assert rows[1, 4] == pytest.approx(1.0, abs=1e-9)   # ... and from z
    # one solved doublet per stress: the SO weight is axis independent
    assert rows[:, 3] == pytest.approx(rows[:, 6], abs=1e-12)
    (only_x, only_x_energies), = qw_mixing_vs_strain(
        [geometry], stresses, (X_AXIS,), table)
    assert np.array_equal(only_x, rows[:, :4])
    assert np.array_equal(only_x_energies, energies)


def test_qw_mixing_vs_strain_checks_each_pair_once(table, monkeypatch):
    # solve_qw checks the pair it returns; the sweep projects it without
    # the second check of envelope_projection, which Doublet would run
    calls = []
    check = states_mod._check_doublets

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    for module in (kp_bulk, qw, states_mod):
        monkeypatch.setattr(module, "_check_doublets", counted)
    geometry = QwGeometry(6.0, barrier_thickness_nm=8.0, grid_points=51)
    (rows, _), = qw_mixing_vs_strain([geometry], [-1.0, 0.0, 1.0],
                                     (X_AXIS, Z_AXIS), table)
    assert len(calls) == 3
    states = solve_qw(geometry, uniaxial_strain(1.0, table["GaAs"]), table, 2)
    assert rows[2, 1:] == pytest.approx(
        astuple(envelope_projection(states, X_AXIS))
        + astuple(envelope_projection(states, Z_AXIS)), abs=1e-15)


def test_qw_mixing_vs_strain_keeps_geometry_order(table):
    stresses = np.array([-1.0, 1.0])
    wide = QwGeometry(8.0, barrier_thickness_nm=8.0, grid_points=51)
    narrow = QwGeometry(3.0, barrier_thickness_nm=8.0, grid_points=51)
    curves = qw_mixing_vs_strain([wide, narrow], stresses, (X_AXIS,), table)
    assert len(curves) == 2
    for geometry, (rows, energies) in zip((wide, narrow), curves):
        (alone, alone_energies), = qw_mixing_vs_strain(
            [geometry], stresses, (X_AXIS,), table)
        assert np.array_equal(rows, alone)
        assert np.array_equal(energies, alone_energies)
    assert not np.array_equal(curves[0][0], curves[1][0])


def test_transition_energy_emulation_baseline(table, gaas):
    # at zero strain the HH level sits hh_shift below the edge and the
    # CB cb_shift above, so the transition is eg + cb + hh exactly
    energy = transition_energy(DEFAULT_EMULATION_OFFSETS, ZERO, table)
    assert energy == pytest.approx(gaas.eg + 0.0528 + 0.0091, abs=1e-12)


def test_transition_energy_emulation_off_the_uniaxial_sweep(table, gaas):
    # any strain, not only a uniaxial one (where e_yy = e_zz): the CB
    # moves with the full trace, and the shifted 6x6 at k = 0 gives the
    # hole, HH shift on diagonal entries 0 and 3 and LH shift on 1 and 2
    offsets = EmulationOffsets(0.03, 0.012, 0.004)
    for strain in (biaxial_strain(-0.5, gaas),
                   StrainState(0.002, -0.001, 0.0005, 0.001, -0.0007,
                               0.0012)):
        h = h6_vb((0, 0, 0), strain, gaas)
        h[[0, 3], [0, 3]] -= offsets.hh_shift
        h[[1, 2], [1, 2]] -= offsets.lh_shift
        top = np.linalg.eigvalsh(h).max()
        expected = (gaas.cb_edge + gaas.ac * strain.trace()
                    + offsets.cb_shift - top)
        assert transition_energy(offsets, strain, table) \
            == pytest.approx(expected, abs=1e-12)


def test_emulated_transitions_batch_matches_single_points(table, gaas):
    # one batched eigensolve gives bit for bit the per-point bulk doublet
    # formula, so the transition table keeps its bytes
    stresses = np.linspace(-2.0, 2.0, 41)
    strains = uniaxial_sweep(stresses, gaas)
    rows = emulated_transition_energies(DEFAULT_EMULATION_OFFSETS, stresses,
                                        table)
    assert rows.shape == (41, 2)
    assert np.array_equal(rows[:, 0], strains[:, 0])
    single = []
    for voigt in strains:
        strain = StrainState(*voigt)
        energies, _ = kp_bulk._doublet_stack(
            voigt, gaas, hh_shift=DEFAULT_EMULATION_OFFSETS.hh_shift,
            lh_shift=DEFAULT_EMULATION_OFFSETS.lh_shift)
        single.append(gaas.cb_edge + gaas.ac * strain.trace()
                      + DEFAULT_EMULATION_OFFSETS.cb_shift - energies[0])
        assert transition_energy(DEFAULT_EMULATION_OFFSETS, strain,
                                 table) == single[-1]
    assert np.array_equal(rows[:, 1], single)


@pytest.mark.parametrize("stresses, match", [
    ([0.0, 1e3], "sanity bound"), ([math.nan], "not finite"),
    ([math.inf], "not finite"), ([[0.1, 0.2], [0.3, 0.4]], "stresses_gpa"),
    (0.5, "stresses_gpa")])
def test_emulated_transitions_check_their_strains(table, stresses, match):
    # the strains are built by uniaxial_sweep, so a stress whose strain
    # breaks the sanity bound or is not finite is rejected, not solved, and
    # so is a stress grid that is not 1-D (a 2-D grid raised numpy's bare
    # broadcast error, a scalar passed as one point)
    with pytest.raises(ValueError, match=match):
        emulated_transition_energies(DEFAULT_EMULATION_OFFSETS, stresses,
                                     table)


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


def test_emulation_offsets_validation(table):
    with pytest.raises(ValueError):
        EmulationOffsets(float("nan"), 0.0, 0.0)
    # the shifts are confinement energies: a negative one gave 1.269 eV
    # without a word
    for shifts in ((-0.05, -0.2, 0.01), (0.05, 0.01, -1e-12)):
        with pytest.raises(ValueError, match="confinement energy >= 0"):
            EmulationOffsets(*shifts)
    offsets = EmulationOffsets(0.0, 0.0, 0.0)
    assert transition_energy(offsets, ZERO, table) \
        == pytest.approx(table["GaAs"].eg, abs=1e-12)


def test_envelope_projection_is_project_hgs(table, random_strain):
    # one doublet check and one projection for bulk states and envelopes
    geometry = QwGeometry(8.0, barrier_thickness_nm=8.0, grid_points=61)
    states = solve_qw(geometry, random_strain(scale=0.005), table, 4)
    axis = QuantizationAxis(0.7, 1.9)
    for j in (0, 2):
        assert envelope_projection(states[j:j + 2], axis) \
            == project_hgs(states[j:j + 2], axis)
    for project in (envelope_projection, project_hgs):
        with pytest.raises(NumericalError, match="degenerate"):
            project((states[0], states[2]), axis)


def test_an_envelope_doublet_joins_its_envelopes(table):
    # as np.hstack joins them, (6, 2N), read-only; a Doublet is made once
    states = solve_qw(QwGeometry(8.0, barrier_thickness_nm=8.0,
                                 grid_points=61), ZERO, table, 2)
    doublet = Doublet(states)
    assert doublet.coefficients.shape == (6, 122)
    assert np.array_equal(doublet.coefficients,
                          np.hstack([s.coefficients for s in states]))
    assert not doublet.coefficients.flags.writeable
    assert Doublet(doublet) is doublet
    assert envelope_projection(doublet, Z_AXIS) \
        == envelope_projection(states, Z_AXIS)


def test_envelope_states_and_doublets_compare_by_identity(table):
    # two identical solves give equal-looking states and doublets, which
    # compare by identity, never raising, and hash into a set
    geometry = QwGeometry(8.0, barrier_thickness_nm=8.0, grid_points=61)
    first, second = (solve_qw(geometry, ZERO, table, 2) for _ in range(2))
    assert first[0] == first[0] and first[0] != second[0]
    assert len({*first, *second, first[0]}) == 4
    pairs = Doublet(first), Doublet(second)
    assert pairs[0] == pairs[0] and pairs[0] != pairs[1]
    assert len(set(pairs)) == 2 and hash(pairs[0]) == hash(Doublet(first))


def test_envelope_projection_requires_degeneracy(table):
    states = solve_qw(QwGeometry(8.0, barrier_thickness_nm=8.0,
                                 grid_points=61), ZERO, table, 4)
    with pytest.raises(ValueError, match="degenerate"):
        envelope_projection((states[0], states[2]), Z_AXIS)


def test_envelope_state_copies_the_callers_array():
    # as SpinorState: the state keeps its own read-only copy, whether it
    # gets a complex (6, N) array or a view into a larger one
    z = np.linspace(-1.0, 1.0, 5)
    c = np.zeros((6, 5), dtype=complex)
    c[0, 2] = 1.0
    state = EnvelopeState(-0.1, c, z)
    assert c.flags.writeable and not state.coefficients.flags.writeable
    c[0, 2], c[1, 1] = 0.0, 1.0
    assert state.density().tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]
    base = np.zeros((2, 6, 5), dtype=complex)
    base[1, 3, 4] = 1.0
    state = EnvelopeState(-0.1, base[1], z)
    assert base.flags.writeable
    base[1, 3, 4], base[1, 3, 0] = 0.0, 1.0
    assert state.coefficients[3].tolist() == [0j, 0j, 0j, 0j, 1 + 0j]


def test_envelope_state_rejects_nan_coefficients():
    c = np.zeros((6, 5), dtype=complex)
    c[0, 2] = 1.0
    c[3, 1] = math.nan
    with pytest.raises(NumericalError, match="envelope norm nan"):
        EnvelopeState(-0.1, c, np.linspace(-1.0, 1.0, 5))


def test_envelope_state_keeps_its_own_read_only_z(table):
    # z as the coefficients: a read-only float copy, so neither the
    # caller's array nor another state's z reaches it
    c = np.zeros((6, 5), dtype=complex)
    c[0, 2] = 1.0
    z = np.linspace(-1.0, 1.0, 5)
    state = EnvelopeState(-0.1, c, z)
    assert not state.z.flags.writeable
    z[0] = 99.0
    assert state.z.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert EnvelopeState(-0.1, c, range(5)).z.dtype == np.float64
    geometry = QwGeometry(8.0, barrier_thickness_nm=8.0, grid_points=51)
    first, second = solve_qw(geometry, ZERO, table, 2)
    assert not first.z.flags.writeable and not second.z.flags.writeable
    with pytest.raises(ValueError):
        second.z[0] = 99.0
    second.z.flags.writeable = True     # the state owns its copy
    second.z[0] = 99.0
    assert first.z.tolist() == geometry.grid().tolist()
