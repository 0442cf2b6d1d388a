import copy
import dataclasses
import math
import pickle
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import vb_hole_complex
from strainkp import kp_bulk, qw
from strainkp import states as states_mod
from strainkp.axis import QuantizationAxis, _project, project_hgs
from strainkp.elasticity import (StrainState, biaxial_strain, uniaxial_strain,
                                 uniaxial_sweep)
from strainkp.kp_bulk import (HBAR2_OVER_2M0, NonHermitianError, build_h8,
                              dispersion, eigensolve, h4_topmost, h6_vb,
                              top_valence_doublet)
from strainkp.optics import _orbital_weights, dipole_strengths
from strainkp.states import Doublet, NumericalError, SpinorState

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


def test_eigensolve_checks_each_state_once(gaas, rng, monkeypatch):
    # _eigh_descending checks every norm; the states skip SpinorState's
    # own check and share the read-only rows of one copy of the vectors,
    # with the coefficients and energies a per-state SpinorState gives
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    sheared = StrainState(0.002, -0.001, 0.0005, 0.001, -0.0007, 0.0012)
    matrices = ((a + a.conj().T) / 2, build_h8((0.1, -0.2, 0.3), sheared,
                                               gaas),
                h6_vb(K0, sheared, gaas))
    for h in matrices:
        energies, vectors = kp_bulk._eigh_descending(h)
        expected = [SpinorState(vectors[:, i], energy=float(energies[i]))
                    for i in range(energies.size)]
        post_init, norms = [], []
        check = kp_bulk._check_norms
        with monkeypatch.context() as m:
            m.setattr(kp_bulk, "_check_norms",
                      lambda v: norms.append(v) or check(v))
            m.setattr(SpinorState, "__post_init__",
                      lambda self: post_init.append(self))
            states = eigensolve(h)
        assert (len(post_init), len(norms)) == (0, 1)
        assert len(states) == len(expected) == h.shape[0]
        for state, ref in zip(states, expected):
            c = state.coefficients
            assert c.dtype == np.complex128 and not c.flags.writeable
            assert c.tobytes() == ref.coefficients.tobytes()
            assert type(state.energy) is float
            assert state.energy == ref.energy


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
    doublet = top_valence_doublet(strain, gaas)
    a, b = doublet
    # the six VB coefficients, as solved, side by side in a read-only pair
    assert isinstance(doublet, Doublet) and len(doublet) == 2
    assert a.coefficients.shape == b.coefficients.shape == (6,)
    assert Doublet(doublet) is doublet
    remade = Doublet((a, b))
    assert remade == (a, b) and remade[0] is a
    assert np.array_equal(remade.coefficients, doublet.coefficients)
    assert remade.coefficients.strides == doublet.coefficients.strides
    for array in (doublet.coefficients, remade.coefficients,
                  a.coefficients, b.coefficients):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    with pytest.raises(AttributeError, match="immutable"):
        doublet.coefficients = np.zeros((6, 2))
    # the states made without SpinorState's check are the checked ones,
    # complex also where the 6x6 is real (e_xz alone, k in the xz plane)
    for d in (doublet, top_valence_doublet(
            StrainState(0, 0, 0, 0, 2e-3, 0), gaas, (0.1, 0, 0.2))):
        assert d.coefficients.dtype == complex
        for state, c in zip(d, d.coefficients.T):
            made = SpinorState(c, energy=state.energy)
            assert vars(state).keys() == vars(made).keys()
            assert state.coefficients.dtype == complex
            assert state.coefficients.tobytes() == made.coefficients.tobytes()
            assert type(state.energy) is float


def test_a_doublet_survives_copy_and_pickle(gaas):
    # remade from its states and checked, never with a writeable copy
    doublet = top_valence_doublet(uniaxial_strain(0.8, gaas), gaas)
    for copied in (copy.copy(doublet), copy.deepcopy(doublet),
                   pickle.loads(pickle.dumps(doublet))):
        assert type(copied) is Doublet
        assert np.array_equal(copied.coefficients, doublet.coefficients)
        assert not copied.coefficients.flags.writeable
        assert [s.energy for s in copied] == [s.energy for s in doublet]


def test_states_and_doublets_compare_by_identity(gaas):
    # equal coefficients make equal-looking states, not equal ones: ==
    # is identity and never raises, and states and doublets hash, so
    # they can go into a set
    c = np.zeros(6, dtype=complex)
    c[0] = 1.0
    a, b = SpinorState(c, energy=0.0), SpinorState(c, energy=0.0)
    assert a == a and a != b and not a == b
    assert len({a, b, a}) == 2
    strain = uniaxial_strain(0.8, gaas)
    first, second = (top_valence_doublet(strain, gaas) for _ in range(2))
    assert first == first and first != second
    assert len({first, second, first}) == 2
    assert len({*first, *second}) == 4


def test_each_chain_checks_its_pair_once(gaas, monkeypatch):
    # the pair is checked where it is made; project_hgs and
    # dipole_strengths read a Doublet as it is, and check any other pair
    calls = []
    check = states_mod._check_doublets

    def counted(*args):
        calls.append(args)
        return check(*args)

    for module in (kp_bulk, qw, states_mod):
        monkeypatch.setattr(module, "_check_doublets", counted)
    monkeypatch.setattr(SpinorState, "__post_init__",
                        lambda self: calls.append(self))
    doublet = top_valence_doublet(uniaxial_strain(0.8, gaas), gaas)
    project_hgs(doublet, QuantizationAxis(0.7, 0.3))
    dipole_strengths(doublet)
    assert len(calls) == 1
    swapped = (doublet[1], doublet[0])
    assert project_hgs(swapped, QuantizationAxis(0.7, 0.3)) \
        == project_hgs(doublet, QuantizationAxis(0.7, 0.3))
    dipole_strengths(list(doublet))
    assert len(calls) == 3


def _bad_pairs(gaas):
    """(pair, error type, message) of pairs that fail one check each."""
    a, b = top_valence_doublet(uniaxial_strain(0.8, gaas), gaas)
    nan = SimpleNamespace(coefficients=np.full(6, math.nan), energy=a.energy)
    full = SpinorState(np.concatenate([[0.0, 0.0], b.coefficients]),
                       energy=b.energy)
    return [
        ((a, SpinorState(b.coefficients, energy=a.energy - 1.0)),
         NumericalError,
         "states are not degenerate: |dE| = 1 eV exceeds 1e-06 eV"),
        ((a, SpinorState(a.coefficients, energy=a.energy)), NumericalError,
         "doublet states are not orthogonal (|overlap| = 1)"),
        ([SpinorState(s.coefficients, energy=math.nan) for s in (a, b)],
         NumericalError,
         "states are not degenerate: |dE| = nan eV exceeds 1e-06 eV"),
        ((a, nan), NumericalError,
         "doublet states are not orthogonal (|overlap| = nan)"),
        ((a, full), ValueError, "doublet states live in different bases"),
        ((a, SpinorState(b.coefficients)), ValueError,
         "doublet states need energies attached"),
    ]


@pytest.mark.parametrize("case", range(6), ids=[
    "split", "not_orthogonal", "nan_energy", "nan_state", "mixed_bases",
    "no_energy"])
@pytest.mark.parametrize("call", [
    Doublet,
    lambda pair: project_hgs(pair, QuantizationAxis(0.7, 0.3)),
    dipole_strengths,
], ids=["Doublet", "project_hgs", "dipole_strengths"])
def test_a_bad_pair_raises_where_it_is_read(gaas, case, call):
    # the errors and messages of the pair check that every call once ran
    pair, error, message = _bad_pairs(gaas)[case]
    with pytest.raises(error) as info:
        call(pair)
    assert type(info.value) is error and str(info.value) == message


def test_bloch_orbital_table_is_built_once_and_read_only():
    # one shared read-only table; the public function returns a fresh copy
    table = states_mod._BLOCH_ORBITALS
    assert not table.flags.writeable
    fresh = states_mod.bloch_orbital_matrix()
    assert np.array_equal(fresh, table) and fresh.flags.writeable
    fresh[:] = 0.0
    assert np.array_equal(states_mod.bloch_orbital_matrix(), table)
    assert np.allclose(table.conj().T @ table, np.eye(8), atol=1e-15)


def test_time_reversal_is_an_exact_signed_permutation():
    # U is the rounded product of the Bloch table, so T psi is exact
    u = states_mod._TIME_REVERSAL
    bloch = states_mod.bloch_orbital_matrix()
    product = (np.conj(bloch.T) @ np.kron([[0.0, 1.0], [-1.0, 0.0]],
                                          np.eye(4))
               @ np.conj(bloch))[states_mod.VB_SLICE, states_mod.VB_SLICE]
    assert u.dtype == np.float64 and not u.flags.writeable
    assert np.abs(u - product).max() <= 1e-15
    assert set(np.unique(u)) <= {-1.0, 0.0, 1.0}
    assert not np.signbit(u[u == 0.0]).any()
    assert np.array_equal(u @ u.T, np.eye(6))
    assert np.array_equal(u @ np.conj(u), -np.eye(6))


@pytest.mark.parametrize("shape", [(3, 1), (1001, 3, 1), (301, 3, 4)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_kramers_partner_is_the_exact_time_reversal(rng, shape, dtype):
    # kept coefficients (..., 3, k), one pair per vector as the bulk
    # (k = 1) and the well (k > 1) hand them over: psi_j in column 2j, the
    # gathered partner in column 2j + 1 with the values of the product
    # U conj(psi), no negative zero (zero coefficients included), and
    # T T psi = -psi
    kept = rng.standard_normal(shape).astype(dtype)
    if dtype is complex:
        kept += 1j * rng.standard_normal(shape)
    kept[..., 1, :] = 0.0
    kept.reshape(-1)[::5] *= -0.0
    pairs = kp_bulk._kramers_pairs(kept)
    psi, partner = pairs[..., 0::2], pairs[..., 1::2]
    assert pairs.shape == shape[:-2] + (6, 2 * shape[-1])
    assert np.array_equal(psi[..., kp_bulk._KEPT_BANDS, :], kept)
    assert not psi[..., kp_bulk._PARTNER_BANDS, :].any()
    assert np.array_equal(partner, states_mod._TIME_REVERSAL @ psi.conj())
    assert not np.signbit(partner.real[partner.real == 0.0]).any()
    assert not np.signbit(partner.imag[partner.imag == 0.0]).any()
    assert np.array_equal(states_mod._time_reverse(partner), -psi)


def _sweep_voigt(gaas, kind):
    """Voigt strains (43, 6) of a +-2 GPa uniaxial [100] sweep, as the
    library's sweeps build them, on a constant prestress: the default
    -0.12 GPa biaxial one (split, real 3x3), that with an e_xy (split,
    complex 3x3), or that with e_yz, e_xz and e_xy (sheared, 6x6)."""
    shears = {"uniaxial": {}, "exy": {"exy": 2e-3},
              "sheared": {"eyz": -2e-3, "exz": 1e-3, "exy": 2e-3}}[kind]
    prestress = dataclasses.replace(biaxial_strain(-0.12, gaas), **shears)
    return uniaxial_sweep(np.linspace(-2.0, 2.0, 43), gaas, prestress)


@pytest.mark.parametrize("kind, solved", [
    ("uniaxial", ((3, 1), np.float64)), ("exy", ((3, 1), np.complex128)),
    ("sheared", ((6, 2), np.complex128))],
    ids=["uniaxial", "exy", "sheared"])
def test_sweep_doublets_match_single_points_bit_for_bit(gaas, kramers_solves,
                                                        kind, solved):
    # the sweep and each of its points alone solve the same bands in the
    # same dtype, and give the same bits
    voigt = _sweep_voigt(gaas, kind)
    bands, dtype = solved
    with kramers_solves() as seen:
        energies, states = kp_bulk._doublet_stack(voigt, gaas)
        assert seen.pop() == ((len(voigt),) + bands, dtype)
        for e, psi, v in zip(energies, states, voigt):
            single = top_valence_doublet(StrainState(*v), gaas)
            assert seen.pop() == (bands, dtype)
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


# a component that is often exactly zero, so every path is drawn
_SMALL = st.sampled_from([0.0, -0.0]) | st.floats(-5e-3, 5e-3)


@settings(max_examples=60, deadline=None)
@given(prestress=st.lists(_SMALL, min_size=6, max_size=6),
       k=st.lists(_SMALL.map(lambda x: 40.0 * x), min_size=3, max_size=3),
       stresses=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=12))
def test_a_uniaxial_sweep_splits_as_each_of_its_points(gaas, kramers_solves,
                                                       prestress, k,
                                                       stresses):
    # _doublet_stack decides the path once per stack: for a uniaxial sweep
    # at one k and one prestress (shears included), that is the decision
    # of each point alone, in the bands solved and in dtype
    voigt = uniaxial_sweep(stresses, gaas, StrainState(*prestress))
    with kramers_solves() as seen:
        kp_bulk._doublet_stack(voigt, gaas, k)
        for v in voigt:
            kp_bulk._doublet_stack(v, gaas, k)
    (shape, dtype), alone = seen[0], seen[1:]
    assert shape[0] == len(voigt)
    assert alone == [(shape[1:], dtype)] * len(voigt)


def _shear_free_voigt(rng, n, xy):
    """Seeded Voigt strains (n, 6) without e_xz and e_yz, and with e_xy
    only when ``xy``."""
    voigt = rng.uniform(-0.01, 0.01, size=(n, 6))
    voigt[:, 3:5] = 0.0
    if not xy:
        voigt[:, 5] = 0.0
    return voigt


def _strengths(states):
    """(s_x, s_y, s_z), last axis, of doublets (..., 6, 2)."""
    return 0.5 * _orbital_weights(states, np.eye(3))


def _projector(states):
    return states @ np.conj(np.swapaxes(states, -1, -2))


@pytest.mark.parametrize("xy", [False, True], ids=["real", "exy"])
def test_split_doublets_match_the_6x6_path(gaas, rng, monkeypatch,
                                           kramers_solves, xy):
    # without e_xz and e_yz the doublet sweep solves the kept 3x3 block
    # (real, or complex with e_xy) and takes each partner by time reversal;
    # the 6x6 eigh of the same stack is its oracle, also at k along z and
    # with the emulation shifts, confinement energies >= 0
    axes = (QuantizationAxis(0.0), QuantizationAxis(math.pi / 2.0),
            QuantizationAxis(rng.uniform(0.0, math.pi),
                             rng.uniform(0.0, 2.0 * math.pi)))
    voigt = _shear_free_voigt(rng, 200, xy)
    for k, shifts in ((K0, {}), ((0.0, 0.0, 0.4), {}),
                      (K0, {"hh_shift": 0.0091, "lh_shift": 0.01})):
        with kramers_solves() as seen:
            energies, states = kp_bulk._doublet_stack(voigt, gaas, k,
                                                      **shifts)
        assert seen == [((200, 3, 1), np.complex128 if xy else np.float64)]
        with monkeypatch.context() as m:
            # every entry counts as a coupling: the 6x6 path
            m.setattr(kp_bulk, "_COUPLINGS", np.ones((6, 6), dtype=bool))
            ref_energies, ref_states = kp_bulk._doublet_stack(
                voigt, gaas, k, **shifts)
        assert np.abs(energies - ref_energies).max() < 1e-12
        assert np.abs(_projector(states) - _projector(ref_states)).max() \
            < 1e-10
        n = [axis.unit_vector for axis in axes]
        assert np.abs(_project(states, n) - _project(ref_states, n)).max() \
            < 1e-10
        assert np.abs(_strengths(states) - _strengths(ref_states)).max() \
            < 1e-10
        # psi lives in the kept bands, T psi in their partners
        assert not states[:, kp_bulk._PARTNER_BANDS, 0].any()
        assert not states[:, kp_bulk._KEPT_BANDS, 1].any()


def test_sheared_doublets_take_the_6x6_path(gaas, rng, kramers_solves):
    # any e_xz or e_yz, or k with both an in-plane and a z component, makes
    # S couple the two sets: no split, one 6x6 eigh of the stack, complex
    # with e_xy, and real for e_xz without e_xy and e_yz at k = 0
    with kramers_solves() as seen:
        kp_bulk._doublet_stack(_shear_free_voigt(rng, 5, True), gaas)
        assert seen.pop() == ((5, 3, 1), np.complex128)
        for column, xy, k, dtype in ((3, True, K0, np.complex128),
                                     (4, True, K0, np.complex128),
                                     (None, True, (0.3, 0.0, 0.4),
                                      np.complex128),
                                     (4, False, K0, np.float64)):
            voigt = _shear_free_voigt(rng, 5, xy)
            if column is not None:
                voigt[:, column] = rng.uniform(-0.01, 0.01, size=5)
            energies, states = kp_bulk._doublet_stack(voigt, gaas, k)
            assert seen.pop() == ((5, 6, 2), dtype)
            assert energies.shape == (5, 2) and states.shape == (5, 6, 2)


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
    assert not broken(K0, voigt, gaas)[..., kp_bulk._COUPLINGS].any()
    with pytest.raises(NonHermitianError, match="not Hermitian"):
        kp_bulk._doublet_stack(voigt, gaas)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_wavevectors_are_rejected(gaas, bad):
    # k enters through one check: a NaN reached LAPACK (a numerical
    # failure for bad input) and an inf overflowed in the assembly
    k = (0.1, bad, 0.0)
    calls = (lambda: h6_vb(k, ZERO, gaas),
             lambda: h6_vb((0.0, 0.0, bad), ZERO, gaas),
             lambda: build_h8(k, ZERO, gaas),
             lambda: build_h8(np.array([K0, k]), ZERO, gaas),
             lambda: top_valence_doublet(ZERO, gaas, k),
             lambda: dispersion([K0, k], ZERO, gaas))
    for call in calls:
        with pytest.raises(ValueError, match="wavevector components must "
                                             "be finite"):
            call()


def test_spinor_norm_enforced():
    with pytest.raises(ValueError, match="norm"):
        SpinorState(np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0]))


@pytest.mark.parametrize("make, message", [
    (lambda: SpinorState(np.eye(2) / math.sqrt(2.0)),
     "unsupported spinor shape (2, 2)"),
    (lambda: SpinorState(np.ones((5, 4)) / math.sqrt(20.0)),
     "unsupported spinor shape (5, 4)"),
], ids=["spinor", "envelope"])
def test_state_types_reject_other_shapes(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_spinor_state_rejects_nan_coefficients():
    # the norm check passes only a norm within 1e-10 of 1, which NaN is not
    with pytest.raises(NumericalError, match="spinor norm nan"):
        SpinorState([math.nan, 1.0, 0, 0, 0, 0], energy=0.0)


def test_check_norms_rejects_nan():
    vectors = np.zeros((3, 6, 2), dtype=complex)
    vectors[..., 0, :] = 1.0
    vectors[1, 4, 1] = math.nan
    with pytest.raises(NumericalError, match="spinor norm nan"):
        states_mod._check_norms(vectors)


def test_check_doublets_rejects_nan():
    # a NaN gap fails the degeneracy check, a NaN overlap the orthogonality
    energies, states = _basis_pairs(3)
    energies[1, 0] = math.nan
    with pytest.raises(NumericalError,
                       match=r"not degenerate: \|dE\| = nan"):
        states_mod._check_doublets(energies, states)
    energies, states = _basis_pairs(3)
    states[2, 5, 1] = math.nan
    with pytest.raises(NumericalError,
                       match=r"not orthogonal \(\|overlap\| = nan\)"):
        states_mod._check_doublets(energies, states)


def test_check_hermitian_rejects_nan():
    h = np.repeat(np.eye(4, dtype=complex)[None], 3, axis=0)
    h[1, 2, 2] = math.nan
    with pytest.raises(NonHermitianError, match="residual nan exceeds"):
        kp_bulk._check_hermitian(h)
    # eigensolve raises the check's error, not LAPACK's non-convergence
    with pytest.raises(NonHermitianError, match="residual nan exceeds"):
        eigensolve(np.full((4, 4), math.nan, dtype=complex))


def test_dispersion_single_point_matches_eigensolve(gaas, rng,
                                                   random_strain):
    energies = dispersion([K0], ZERO, gaas)
    expected = [s.energy for s in eigensolve(build_h8(K0, ZERO, gaas))]
    assert energies[0] == pytest.approx(expected, abs=1e-12)
    # a path is solved as one stack, bit for bit the eigenvalues of
    # build_h8 at each point, for array, list and generator paths alike
    for _ in range(5):
        strain = random_strain(scale=0.005)
        path = rng.uniform(-0.5, 0.5, size=(9, 3))
        single = [[s.energy for s in eigensolve(build_h8(k, strain, gaas))]
                  for k in path]
        assert np.array_equal(dispersion(path, strain, gaas), single)
        assert np.array_equal(
            dispersion(path.tolist(), strain, gaas), single)
        assert np.array_equal(
            dispersion((k for k in path), strain, gaas), single)
    assert dispersion([], ZERO, gaas).shape == (0, 8)
    # each point has three components: not two, not one number, and not
    # two in a ragged path
    for path in ([(0.1, 0.2)], (0.1, 0.2, 0.3), [K0, (0.1, 0.2)]):
        with pytest.raises(ValueError, match="three components"):
            dispersion(path, ZERO, gaas)


def test_dispersion_isotropic_masses_spherical_variant(gaas):
    # with gamma3 = gamma2 the in-plane HH/LH masses are 1/(g1 -+ 2 g2)
    p = dataclasses.replace(gaas, gamma3=gaas.gamma2)
    ks = np.linspace(-0.05, 0.05, 11)
    for direction in ("x", "y"):
        path = np.zeros((ks.size, 3))
        path[:, "xy".index(direction)] = ks
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
        path = np.zeros((ks.size, 3))
        path[:, "xy".index(direction)] = ks
        energies = dispersion(path, strain, gaas)
        assert np.all(np.diff(energies, axis=1) <= 0)  # descending rows
        curv[direction] = np.polyfit(ks, energies[:, 2], 2)[0]
    assert curv["x"] < 0 and curv["y"] < 0
    assert abs(curv["x"]) < abs(curv["y"])


def test_spinor_state_copies_the_callers_array():
    # the state keeps its own read-only copy: the caller's array stays
    # writable, and no later write to it (or to the base of a view) leaks in
    c = np.zeros(8, dtype=complex)
    c[2] = 1.0
    state = SpinorState(c)
    assert c.flags.writeable and not state.coefficients.flags.writeable
    c[2], c[3] = 0.0, 1.0
    assert state.coefficients[2] == 1.0 and state.coefficients[3] == 0.0
    base = np.zeros((2, 8), dtype=complex)
    base[0, 5] = 1.0
    view = base[0]
    state = SpinorState(view)
    assert view.flags.writeable and base.flags.writeable
    base[0, 5] = 2.0
    view[4] = 3.0
    assert state.coefficients.tolist() == [0j] * 5 + [1 + 0j, 0j, 0j]


@settings(max_examples=200, deadline=None)
# biaxial at k = 0: entries with zeros
@example(points=[([-1e-3, -1e-3, 9e-4, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0])])
@given(points=st.lists(st.tuples(st.lists(_SMALL, min_size=6, max_size=6),
                                 st.lists(_SMALL.map(lambda x: 60.0 * x),
                                          min_size=3, max_size=3)),
                       min_size=1, max_size=6))
def test_single_point_assembly_matches_the_stack_bit_for_bit(gaas, points):
    # one point is assembled from Python floats, a stack from arrays; the
    # integer views tell signed zeros apart (a real entry's mirror keeps a
    # +0 imaginary part), so zero components of either sign are drawn
    voigt = np.array([v for v, _ in points])
    k = np.array([q for _, q in points])
    stack = kp_bulk._vb_hole(k, voigt, gaas)
    assert np.array_equal(stack.view(np.uint64),
                          vb_hole_complex(k, voigt, gaas).view(np.uint64))
    one_k = kp_bulk._vb_hole(k[0], voigt, gaas)
    for i in range(len(points)):
        single = kp_bulk._vb_hole(k[i], voigt[i], gaas)
        assert single.shape == (6, 6)
        assert np.array_equal(single.view(np.uint64),
                              stack[i].view(np.uint64))
        # one wavevector over a stack of strains, as the well's blocks
        assert np.array_equal(
            kp_bulk._vb_hole(k[0], voigt[i], gaas).view(np.uint64),
            one_k[i].view(np.uint64))


_SHIFT = st.sampled_from([0.0, 0.0091, 0.01]) | st.floats(0.0, 0.2)


@settings(max_examples=100, deadline=None)
@example(voigt=[-1e-3, -1e-3, 9e-4, 0.0, 0.0, 0.0], k=[0.0, 0.0, 0.0],
         shifts=(0.0091, 0.01))   # the default offsets on a biaxial strain
@given(voigt=st.lists(st.lists(_SMALL, min_size=6, max_size=6),
                      min_size=1, max_size=4)
       | st.lists(_SMALL, min_size=6, max_size=6),
       k=st.lists(_SMALL.map(lambda x: 60.0 * x), min_size=3, max_size=3),
       shifts=st.tuples(_SHIFT, _SHIFT))
def test_emulated_doublet_matrix_is_the_oracle_minus_its_offsets(
        gaas, voigt, k, shifts):
    # the confinement energies (>= 0, as EmulationOffsets holds them) are
    # subtracted from the electron-picture HH (0, 3) and LH (1, 2)
    # diagonal, bit for bit, and that has the bits of the hole-picture
    # add it replaces: fl(-a - s) = -fl(a + s), signed zeros included
    voigt = np.array(voigt)
    hh, lh = shifts
    seen = []
    check = kp_bulk._check_hermitian
    with pytest.MonkeyPatch.context() as m:
        m.setattr(kp_bulk, "_check_hermitian",
                  lambda h: seen.append(h.copy()) or check(h))
        kp_bulk._doublet_stack(voigt, gaas, k, hh_shift=hh, lh_shift=lh)
    (h,) = seen
    points = voigt.reshape(-1, 6)
    oracle = vb_hole_complex(np.broadcast_to(k, (len(points), 3)), points,
                             gaas).reshape(voigt.shape[:-1] + (6, 6))
    electron = -oracle
    electron[..., (0, 3), (0, 3)] -= hh
    electron[..., (1, 2), (1, 2)] -= lh
    hole = oracle.copy()
    hole[..., (0, 3), (0, 3)] += hh
    hole[..., (1, 2), (1, 2)] += lh
    for expected in (electron, -hole):
        assert h.shape == expected.shape
        assert np.array_equal(h.view(np.uint64), expected.view(np.uint64))


def _take_along_phases(vectors):
    """``_fix_phases`` as it was written with ``np.take_along_axis``."""
    pivot = np.argmax(np.abs(vectors) > 1e-10, axis=-2)[..., None, :]
    lead = np.take_along_axis(vectors, pivot, axis=-2)
    return vectors / (lead / np.abs(lead))


@settings(max_examples=60, deadline=None)
@given(batch=st.sampled_from([(), (1,), (5,), (2, 3), (3, 1)]),
       m=st.integers(1, 8), j=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), reversed_columns=st.booleans())
def test_fix_phases_matches_take_along_axis_bit_for_bit(
        batch, m, j, seed, reversed_columns):
    # columns lead with up to m - 1 entries below 1e-10 (zeros of either
    # sign among them), so the pivot is not always the first row
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=batch + (m, j)) \
        + 1j * rng.normal(size=batch + (m, j))
    tiny = rng.integers(0, m, size=batch + (j,))
    below = np.arange(m)[:, None] < tiny[..., None, :]
    small = rng.choice([0.0, -0.0, 1e-11, -9e-11], size=vectors.shape) \
        + 1j * rng.choice([0.0, -0.0, 5e-11, -1e-12], size=vectors.shape)
    vectors = np.where(below, small, vectors)
    if reversed_columns:
        vectors = vectors[..., ::-1]
    fixed = states_mod._fix_phases(vectors)
    expected = _take_along_phases(vectors)
    # the integer views tell -0.0 from +0.0
    assert fixed.shape == expected.shape
    assert np.array_equal(np.ascontiguousarray(fixed).view(np.uint64),
                          np.ascontiguousarray(expected).view(np.uint64))


def _basis_pairs(n, m=8):
    """n orthonormal degenerate pairs (n, m, 2) of basis vectors, with
    energies (n, 2)."""
    states = np.zeros((n, m, 2), dtype=complex)
    states[:, 0, 0] = states[:, 1, 1] = 1.0
    return np.full((n, 2), -0.25), states


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), data=st.data())
def test_check_doublets_reports_the_first_failing_pair(n, data):
    # planted gaps and overlaps anywhere in a stack: the earliest failing
    # pair raises, and at one pair the gap is reported before the overlap
    energies, states = _basis_pairs(n)
    gaps = data.draw(st.sets(st.integers(0, n - 1)))
    overlaps = data.draw(st.sets(st.integers(0, n - 1)))
    for i in gaps:
        energies[i, 1] += 3.5e-6 * (i + 1)
    for i in overlaps:
        a = 2.0 ** -(i + 10)
        states[i, :2, 1] = a, math.sqrt(1.0 - a * a)
    if not gaps | overlaps:
        states_mod._check_doublets(energies, states)
        return
    first = min(gaps | overlaps)
    if first in gaps:
        gap = abs(energies[first, 0] - energies[first, 1])
        message = (f"states are not degenerate: |dE| = {gap:g} eV exceeds "
                   f"{1e-6:g} eV")
    else:
        message = (f"doublet states are not orthogonal "
                   f"(|overlap| = {2.0 ** -(first + 10):g})")
    with pytest.raises(NumericalError) as info:
        states_mod._check_doublets(energies, states)
    assert str(info.value) == message
    # the same stack as (a, b) batch axes reports the same pair
    if n % 3 == 0:
        with pytest.raises(NumericalError) as info:
            states_mod._check_doublets(energies.reshape(3, -1, 2),
                                    states.reshape(3, -1, 8, 2))
        assert str(info.value) == message


def test_check_doublets_passes_tolerances_and_single_pairs():
    # a gap of exactly 1e-6 eV and an overlap of exactly 1e-8 pass
    energies, states = _basis_pairs(4)
    energies[:] = 0.0
    energies[:, 1] = 1e-6
    states[:, 0, 1] = 1e-8
    states_mod._check_doublets(energies, states)
    states_mod._check_doublets(energies[0], states[0])
    energies[0, 1] += 1e-6
    with pytest.raises(NumericalError, match="not degenerate"):
        states_mod._check_doublets(energies[0], states[0])


@settings(max_examples=60, deadline=None)
@given(batch=st.sampled_from([(1,), (7,), (2, 3)]), m=st.integers(2, 8),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_check_hermitian_reports_the_first_failing_matrix(batch, m, seed,
                                                          data):
    # a non-Hermitian entry in either triangle of any matrix of a stack;
    # the residual is max|h - h^dagger| of the first matrix that fails
    rng = np.random.default_rng(seed)
    a = rng.normal(size=batch + (m, m)) + 1j * rng.normal(size=batch + (m, m))
    h = np.ascontiguousarray(a + np.conj(np.swapaxes(a, -1, -2)))
    flat = h.reshape(-1, m, m)
    planted = data.draw(st.sets(st.integers(0, len(flat) - 1)))
    for i in planted:
        row, col = data.draw(st.tuples(st.integers(0, m - 1),
                                       st.integers(0, m - 1)))
        # imaginary parts, so a diagonal entry fails too
        flat[i, row, col] += data.draw(
            st.sampled_from([1e-9j, 2e-12 + 2e-11j, -1.0j]))
    # below the tolerance nothing raises
    flat[:, 0, m - 1] += 1e-13
    if not planted:
        kp_bulk._check_hermitian(h)
        return
    first = flat[min(planted)]
    resid = np.abs(first - np.conj(first.T)).max()
    with pytest.raises(NonHermitianError) as info:
        kp_bulk._check_hermitian(h)
    assert str(info.value) == (f"matrix is not Hermitian: residual "
                               f"{resid:g} exceeds 1e-12")


@settings(max_examples=60, deadline=None)
@given(batch=st.sampled_from([(), (4,), (2, 3)]), j=st.integers(1, 6),
       data=st.data())
def test_check_norms_reports_the_first_drifting_column(batch, j, data):
    # columns in stack order, then column order; a drift of 1e-10 or less
    # passes, and the first larger one raises SpinorState's error
    vectors = np.zeros(batch + (8, j), dtype=complex)
    vectors[..., 0, :] = 1.0
    columns = np.moveaxis(vectors, -1, -2).reshape(-1, 8)
    planted = data.draw(st.sets(st.integers(0, len(columns) - 1)))
    for i in planted:
        columns[i, 0] = 1.0 + 2e-10 * (i + 1)
    vectors = np.moveaxis(columns.reshape(batch + (j, 8)), -1, -2)
    vectors[..., 3, 0] = 9e-6   # norm 1 + 4e-11: within the tolerance
    if not planted:
        states_mod._check_norms(vectors)
        return
    norm = np.linalg.norm(columns[min(planted)])
    with pytest.raises(NumericalError) as info:
        states_mod._check_norms(vectors)
    assert str(info.value) == f"spinor norm {norm} deviates from 1"
