"""Acceptance gate: every shipped claim at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Oracles used here are deliberately independent of
the library code paths they check (literal Hamiltonian entries, J_x
eigenvectors, forward stiffness map, closed-form levels, an orbital-basis
valence Hamiltonian built from Cartesian p orbitals x spin, and the
closed-form X weight of the top doublet under uniaxial [100] stress).
"""

import math
import time

import numpy as np
import pytest

import strainkp as sk
from strainkp.axis import default_theta_grid
from strainkp.cli import main as cli_main

Z_AXIS = sk.QuantizationAxis(0.0)
X_AXIS = sk.QuantizationAxis(math.pi / 2.0)
SQ3 = math.sqrt(3.0)


def _report(num, name, checks, elapsed, budget):
    ok = all(flag for flag, _ in checks)
    line = (f"ACCEPTANCE {num:02d} {name}: "
            f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f} s)")
    failed = [msg for flag, msg in checks if not flag]
    if failed:
        line += " -- " + "; ".join(failed)
    print(line)
    assert elapsed < budget, f"criterion {num} exceeded {budget} s budget"
    assert ok, line


@pytest.fixture(scope="module")
def table():
    return sk.default_parameter_table()


@pytest.fixture(scope="module")
def gaas(table):
    return table["GaAs"]


@pytest.fixture(scope="module")
def prestress(gaas):
    return sk.biaxial_strain(-0.12, gaas)


@pytest.fixture(scope="module")
def sweep():
    return np.linspace(-2.0, 2.0, 201)


def oracle_h6_electron(strain, p):
    """Literal-entry 6x6 valence Hamiltonian (diagonal strains), written
    out independently of the library builder."""
    exx, eyy, ezz = strain.exx, strain.eyy, strain.ezz
    tr = exx + eyy + ezz
    ev_hole = -(p.ev_av + p.delta / 3.0)
    pp = ev_hole - p.av * tr
    qq = -0.5 * p.b * (exx + eyy - 2.0 * ezz)
    rr = 0.5 * SQ3 * p.b * (exx - eyy)
    dd = p.delta
    s2 = math.sqrt(2.0)
    hole = np.array([
        [pp + qq, 0, rr, 0, 0, s2 * rr],
        [0, pp - qq, 0, rr, -s2 * qq, 0],
        [rr, 0, pp - qq, 0, 0, s2 * qq],
        [0, rr, 0, pp + qq, -s2 * rr, 0],
        [0, -s2 * qq, 0, -s2 * rr, pp + dd, 0],
        [s2 * rr, 0, s2 * qq, 0, 0, pp + dd],
    ], dtype=complex)
    return -hole


def oracle_projection_x(vb6):
    """HH/LH weights along x from the eigenvectors of J_x (distinct
    eigenvalues, so unique up to phase); SO weight is axis independent."""
    s32 = SQ3 / 2.0
    jx = np.array([[0, s32, 0, 0], [s32, 0, 1, 0],
                   [0, 1, 0, s32], [0, 0, s32, 0]])
    _, vecs = np.linalg.eigh(jx)  # ascending: -3/2, -1/2, +1/2, +3/2
    weights = np.abs(vecs.conj().T @ vb6[:4]) ** 2
    return (weights[0] + weights[3], weights[1] + weights[2],
            abs(vb6[4]) ** 2 + abs(vb6[5]) ** 2)


def oracle_orbital_dipoles(strain, p):
    """X/Y/Z weights of the top valence doublet from a Hamiltonian over
    Cartesian p orbitals x spin (diagonal strains only).

    Electron picture: the traceless Bir-Pikus part 3b(e - tr(e)/3) acts
    on the orbitals and spin-orbit coupling (delta/3) L.sigma splits the
    j = 3/2 and j = 1/2 multiplets by delta; scalar shifts are dropped
    because they do not change eigenvectors.
    """
    levi = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        levi[i, j, k], levi[i, k, j] = 1.0, -1.0
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                      [[1, 0], [0, -1]]])
    eps = np.diag([strain.exx, strain.eyy, strain.ezz])
    orbital = 3.0 * p.b * (eps - np.trace(eps) / 3.0 * np.eye(3))
    spin_orbit = sum(np.kron(-1j * levi[k], pauli[k]) for k in range(3))
    h = np.kron(orbital, np.eye(2)) + p.delta / 3.0 * spin_orbit
    _, vecs = np.linalg.eigh(h)  # rows: (X, Y, Z) x (up, dn)
    top = vecs[:, -2:].reshape(3, 2, 2)
    return 0.5 * np.sum(np.abs(top) ** 2, axis=(1, 2))


def closed_form_s_x_uniaxial(strain, p):
    """X weight of the top doublet under uniaxial [100] stress alone
    (e_yy = e_zz): the 2x2 block of the m_j = +-1/2 states along x."""
    split = 3.0 * p.b * (strain.exx - strain.eyy)
    half = 0.5 * (split + p.delta / 3.0)
    return 0.5 * (1.0 + half / math.sqrt(half ** 2 + 2.0 * p.delta ** 2 / 9.0))


def test_criterion_01_poisson_ratio():
    start = time.perf_counter()
    nu = sk.default_parameter_table()["GaAs"].poisson_ratio_100
    elapsed = time.perf_counter() - start
    _report(1, "poisson ratio", [
        (0.30 <= nu <= 0.32, f"nu={nu:.4f} outside [0.30, 0.32]"),
    ], elapsed, budget=1.0)


def test_criterion_02_commutators(gaas):
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    jz = sk.j_operator("z")
    jx = sk.j_operator("x")
    k0 = (0.0, 0.0, 0.0)
    worst_bi = max(
        sk.commutator_norm(jz, sk.h4_topmost(
            k0, sk.biaxial_strain(rng.uniform(-2, 2), gaas), gaas))
        for _ in range(100))
    worst_uni = max(
        sk.commutator_norm(jx, sk.h4_topmost(
            k0, sk.uniaxial_strain(rng.uniform(-2, 2), gaas), gaas))
        for _ in range(100))
    lowest_cross = min(
        sk.commutator_norm(jz, sk.h4_topmost(
            k0, sk.uniaxial_strain(sigma, gaas), gaas))
        for sigma in (0.1, -0.1, 0.5, -1.0, 2.0))
    elapsed = time.perf_counter() - start
    _report(2, "commutators", [
        (worst_bi < 1e-12, f"max |[Jz,H]| biaxial {worst_bi:.2e}"),
        (worst_uni < 1e-12, f"max |[Jx,H]| uniaxial {worst_uni:.2e}"),
        (lowest_cross > 1e-6, f"min |[Jz,H]| uniaxial {lowest_cross:.2e}"),
    ], elapsed, budget=5.0)


def test_criterion_03_mixing_flip(gaas, prestress, sweep):
    start = time.perf_counter()
    curve_z, curve_x = sk.mixing_curve(sweep, prestress, (Z_AXIS, X_AXIS),
                                       gaas)
    i0 = int(np.argmin(np.abs(sweep)))
    checks = [(abs(curve_z[i0, 1] - 1.0) < 1e-9,
               f"p_hh_z at zero stress = {curve_z[i0, 1]:.12f}")]

    tension = curve_x[sweep >= 0.0]
    above = np.flatnonzero(tension[:, 1] >= 0.9)
    if above.size == 0:
        checks.append((False, "p_hh_x never reaches 0.9 on tension branch"))
    else:
        cross = tension[above[0], 0]
        checks.append((0.001 <= cross <= 0.008,
                       f"p_hh_x crosses 0.9 at strain {cross:.4%}"))
        checks.append((bool(np.all(tension[above[0]:, 1] >= 0.9)),
                       "p_hh_x does not stay above 0.9"))

    compression = curve_x[sweep <= 0.0][::-1]
    above = np.flatnonzero(compression[:, 2] >= 0.9)
    if above.size == 0:
        checks.append((False, "p_lh_x never reaches 0.9 on compression"))
    else:
        cross = compression[above[0], 0]
        checks.append((-0.005 <= cross <= -0.0005,
                       f"p_lh_x crosses 0.9 at strain {cross:.4%}"))

    # independent oracle: literal 6x6 + J_x eigenvectors, every 25th point
    worst = 0.0
    for i in range(0, len(sweep), 25):
        strain = sk.superpose(prestress, sk.uniaxial_strain(sweep[i], gaas))
        energies, vectors = np.linalg.eigh(oracle_h6_electron(strain, gaas))
        expected = 0.5 * np.sum([oracle_projection_x(vectors[:, j])
                                 for j in (-1, -2)], axis=0)
        worst = max(worst, abs(curve_x[i, 1] - expected[0]),
                    abs(curve_x[i, 2] - expected[1]),
                    abs(curve_x[i, 3] - expected[2]))
    checks.append((worst < 1e-9, f"oracle mismatch {worst:.2e}"))
    elapsed = time.perf_counter() - start
    _report(3, "mixing flip", checks, elapsed, budget=30.0)


def test_criterion_04_flip_not_rotation(gaas, prestress):
    start = time.perf_counter()
    stresses = np.linspace(0.0, 2.0, 201)
    _, _, phh = sk.mixing_map(stresses, prestress, gaas,
                              thetas=default_theta_grid(61))
    best = phh.max(axis=0)  # max over theta, per strain point
    interior_min = best[1:-1].min()
    elapsed = time.perf_counter() - start
    _report(4, "flip not rotation", [
        (best[0] >= 0.9, f"start max_theta p_hh = {best[0]:.3f}"),
        (best[-1] >= 0.9, f"end max_theta p_hh = {best[-1]:.3f}"),
        (interior_min < 0.9,
         f"interior min of max_theta p_hh = {interior_min:.3f}"),
    ], elapsed, budget=60.0)


def test_criterion_05_quantum_well(table, gaas):
    start = time.perf_counter()
    zero = sk.StrainState()
    base = sk.QwGeometry(12.0)  # defaults: 20 nm barriers, N = 301
    states = sk.solve_qw(base, zero, table, 2)
    purity = sk.envelope_projection(states, Z_AXIS).p_hh
    doubled = sk.QwGeometry(12.0, grid_points=2 * base.grid_points + 1)
    drift = abs(states[0].energy
                - sk.solve_qw(doubled, zero, table, 2)[0].energy)
    tension = sk.uniaxial_strain(2.0, gaas)
    p_thick = sk.envelope_projection(
        sk.solve_qw(sk.QwGeometry(12.0), tension, table, 2), X_AXIS).p_hh
    p_thin = sk.envelope_projection(
        sk.solve_qw(sk.QwGeometry(4.0), tension, table, 2), X_AXIS).p_hh
    elapsed = time.perf_counter() - start
    _report(5, "quantum well", [
        (purity >= 1.0 - 1e-6, f"p_hh_z(12 nm, 0 strain) = {purity:.8f}"),
        (p_thick > p_thin,
         f"p_hh_x 12 nm {p_thick:.4f} vs 4 nm {p_thin:.4f}"),
        (drift < 1e-4, f"grid-doubling drift {1e3 * drift:.3f} meV"),
    ], elapsed, budget=300.0)


def test_criterion_06_dipole_limits(gaas, prestress, sweep):
    start = time.perf_counter()
    checks = []

    def pure(index_a, index_b):
        va = np.zeros(8, dtype=complex)
        vb = np.zeros(8, dtype=complex)
        va[index_a] = 1.0
        vb[index_b] = 1.0
        return (sk.SpinorState(va, energy=0.0),
                sk.SpinorState(vb, energy=0.0))

    hh = sk.dipole_strengths(pure(2, 5)).as_array()
    lh = sk.dipole_strengths(pure(3, 4)).as_array()
    checks.append((np.max(np.abs(hh - [0.5, 0.5, 0.0])) < 1e-12,
                   f"pure HH strengths {hh}"))
    checks.append((np.max(np.abs(lh - [1 / 6, 1 / 6, 2 / 3])) < 1e-12,
                   f"pure LH strengths {lh}"))

    # fully concentrated limit: the pure-X doublet from the basis table,
    # X(up) = -HH+3/2/sqrt2 + LH-1/2/sqrt6 + SO-1/2/sqrt3 and its partner
    # X(dn) = HH-3/2/sqrt2 - LH+1/2/sqrt6 + SO+1/2/sqrt3
    x_up = np.zeros(8, dtype=complex)
    x_dn = np.zeros(8, dtype=complex)
    x_up[[2, 4, 7]] = -1 / math.sqrt(2), 1 / math.sqrt(6), 1 / SQ3
    x_dn[[5, 3, 6]] = 1 / math.sqrt(2), -1 / math.sqrt(6), 1 / SQ3
    pure_x = sk.rates(sk.dipole_strengths(
        (sk.SpinorState(x_up, energy=0.0), sk.SpinorState(x_dn, energy=0.0))),
        sk.RateCalibration(250.0))
    checks.append((np.max(np.abs(pure_x.as_array() - [1.0, 0.0, 0.0]))
                   < 1e-12, f"pure X strengths {pure_x.as_array()}"))
    checks.append((abs(pure_x.r_x - 8.0) < 1e-9,
                   f"pure X r_x = {pure_x.r_x:.12f} GHz"))

    rows = sk.dipole_sweep(sweep, prestress, gaas,
                           sk.RateCalibration(250.0))
    comp = rows[0]   # -2 GPa endpoint
    ten = rows[-1]   # +2 GPa endpoint

    # compression: orbital-basis oracle at the endpoint and every 25th point
    worst = 0.0
    for i in range(0, len(sweep), 25):
        strain = sk.superpose(prestress, sk.uniaxial_strain(sweep[i], gaas))
        expected = oracle_orbital_dipoles(strain, gaas)
        worst = max(worst, float(np.max(np.abs(rows[i, 1:4] - expected))))
    checks.append((worst < 1e-9, f"orbital oracle mismatch {worst:.2e}"))
    checks.append((comp[1] > 2 / 3,
                   f"compression endpoint s_x = {comp[1]:.4f} not above "
                   f"the pure LH_x value 2/3"))
    checks.append((abs(comp[4] - 8.0 * comp[1]) < 1e-9,
                   f"compression endpoint r_x = {comp[4]:.4f} GHz "
                   f"vs 8 GHz * s_x = {8.0 * comp[1]:.4f} GHz"))

    # uniaxial [100] stress alone: closed form of the 2x2 top block
    bare = sk.uniaxial_strain(sweep[0], gaas)
    closed = closed_form_s_x_uniaxial(bare, gaas)
    bare_rows = sk.dipole_sweep(sweep[:1], None, gaas)
    mismatch = max(abs(closed - oracle_orbital_dipoles(bare, gaas)[0]),
                   abs(closed - bare_rows[0, 1]))
    checks.append((mismatch < 1e-9,
                   f"uniaxial closed form s_x = {closed:.6f}, "
                   f"mismatch {mismatch:.2e}"))

    checks.append((ten[1] <= 0.05, f"tension endpoint s_x = {ten[1]:.4f}"))
    checks.append((ten[2] > ten[3] > 0.0,
                   f"tension endpoint s_y = {ten[2]:.3f}, "
                   f"s_z = {ten[3]:.3f}"))
    elapsed = time.perf_counter() - start
    _report(6, "dipole limits", checks, elapsed, budget=30.0)


def test_criterion_07_polarization(gaas, prestress):
    start = time.perf_counter()
    stresses = np.linspace(0.0, 2.0, 101)
    rows = sk.dipole_sweep(stresses, prestress, gaas)
    pols = [sk.dlp_and_angle(sk.DipoleStrengths(*row[1:4]))
            for row in rows]
    degrees = np.array([p.degree for p in pols])
    elapsed = time.perf_counter() - start
    _report(7, "polarization observables", [
        (degrees[0] == 0.0, f"P at zero stress = {degrees[0]:.3e}"),
        (degrees[-1] >= 0.95, f"P at tension endpoint = {degrees[-1]:.4f}"),
        (abs(pols[-1].angle_deg - 90.0) <= 1.0,
         f"angle at endpoint = {pols[-1].angle_deg:.1f} deg"),
        (bool(np.all(np.diff(degrees) >= -1e-9)),
         "P not monotone along tension"),
    ], elapsed, budget=10.0)


def test_criterion_08_energy_shift_nonlinearity(table, gaas):
    start = time.perf_counter()
    sweep = np.linspace(-2.0, 2.0, 401)
    strains = [sk.uniaxial_strain(s, gaas) for s in sweep]
    exx = np.array([e.exx for e in strains])
    energy = np.array([
        sk.transition_energy(sk.DEFAULT_EMULATION_OFFSETS, e, table)
        for e in strains])
    shift = energy - energy[int(np.argmin(np.abs(sweep)))]

    tension_x = exx[sweep >= 0.0]
    tension_shift = shift[sweep >= 0.0]
    quarter = len(tension_x) // 4
    fit = np.polyfit(tension_x[-quarter:], tension_shift[-quarter:], 1)
    resid = tension_shift[-quarter:] - np.polyval(fit, tension_x[-quarter:])
    ss_tot = np.sum((tension_shift[-quarter:]
                     - tension_shift[-quarter:].mean()) ** 2)
    r_squared = 1.0 - np.sum(resid ** 2) / ss_tot

    window = np.abs(exx) <= 0.005
    near_fit = np.polyfit(exx[window], shift[window], 1)
    near_resid = np.max(np.abs(shift[window]
                               - np.polyval(near_fit, exx[window])))

    reached = np.flatnonzero(np.abs(tension_shift) >= 0.100)
    if reached.size == 0:
        crossing_check = (False, "100 meV shift never reached")
    else:
        at = tension_x[reached[0]]
        crossing_check = (0.013 <= at <= 0.020,
                          f"100 meV shift at strain {at:.4%}")
    elapsed = time.perf_counter() - start
    _report(8, "energy-shift nonlinearity", [
        (r_squared > 0.999, f"tension tail R^2 = {r_squared:.6f}"),
        (near_resid > 1e-3,
         f"near-zero linear residual = {1e3 * near_resid:.2f} meV"),
        crossing_check,
    ], elapsed, budget=60.0)


def test_criterion_09_property_suites(gaas):
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    checks = []

    def rand_strain(shear=True):
        v = rng.uniform(-0.01, 0.01, size=6)
        if not shear:
            v[3:] = 0.0
        return sk.StrainState(*v)

    worst_h = 0.0
    for _ in range(1000):
        h8 = sk.build_h8(rng.uniform(-0.5, 0.5, 3), rand_strain(), gaas)
        worst_h = max(worst_h, np.max(np.abs(h8 - h8.conj().T)))
    checks.append((worst_h < 1e-13, f"hermiticity {worst_h:.2e}"))

    worst_gram = worst_kramers = 0.0
    for _ in range(1000):
        states = sk.eigensolve(sk.h6_vb((0, 0, 0), rand_strain(), gaas))
        vecs = np.column_stack([s.coefficients for s in states])
        worst_gram = max(worst_gram, np.max(np.abs(
            vecs.conj().T @ vecs - np.eye(6))))
        energies = [s.energy for s in states]
        worst_kramers = max(worst_kramers,
                            max(abs(energies[i] - energies[i + 1])
                                for i in (0, 2, 4)))
    checks.append((worst_gram < 1e-10, f"orthonormality {worst_gram:.2e}"))
    checks.append((worst_kramers < 1e-9,
                   f"Kramers degeneracy {worst_kramers:.2e}"))

    worst_sum = 0.0
    for _ in range(1000):
        doublet = sk.top_valence_doublet(rand_strain(), gaas)
        axis = sk.QuantizationAxis(rng.uniform(0, math.pi),
                                   rng.uniform(0, 2 * math.pi))
        proj = sk.project_hgs(doublet, axis)
        worst_sum = max(worst_sum, abs(proj.total - 1.0))
    checks.append((worst_sum < 1e-9, f"completeness {worst_sum:.2e}"))

    worst_mix = 0.0
    for _ in range(20):
        a, b = sk.top_valence_doublet(rand_strain(), gaas)
        base_proj = sk.project_hgs((a, b), X_AXIS)
        base_dip = sk.dipole_strengths((a, b)).as_array()
        pair = np.column_stack([a.coefficients, b.coefficients])
        for _ in range(50):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u, _ = np.linalg.qr(m)
            mixed = pair @ u
            remixed = (sk.SpinorState(mixed[:, 0], energy=a.energy),
                       sk.SpinorState(mixed[:, 1], energy=b.energy))
            proj = sk.project_hgs(remixed, X_AXIS)
            dip = sk.dipole_strengths(remixed).as_array()
            worst_mix = max(worst_mix,
                            abs(proj.p_hh - base_proj.p_hh),
                            abs(proj.p_lh - base_proj.p_lh),
                            abs(proj.p_so - base_proj.p_so),
                            float(np.max(np.abs(dip - base_dip))))
    checks.append((worst_mix < 1e-12,
                   f"doublet-unitary invariance {worst_mix:.2e}"))

    worst_rt = 0.0
    for _ in range(1000):
        sigma = sk.StressTensor(*rng.uniform(-2, 2, size=6))
        back = sk.stress_from_strain(sk.strain_from_stress(sigma, gaas),
                                     gaas)
        worst_rt = max(worst_rt,
                       np.max(np.abs(back.as_voigt() - sigma.as_voigt())))
    checks.append((worst_rt < 1e-12, f"elastic round trip {worst_rt:.2e}"))

    elapsed = time.perf_counter() - start
    _report(9, "property suites", checks, elapsed, budget=120.0)


def test_criterion_10_determinism(tmp_path, capsys):
    start = time.perf_counter()
    config = tmp_path / "run.ini"
    config.write_text(
        "[sweep]\nsteps = 5\n"
        "[axis]\ntheta_steps = 4\n"
        "[qw]\nthicknesses_nm = 6\nbarrier_thickness_nm = 10\n"
        "grid_points = 51\nsweep_steps = 3\n"
        "[emulation]\ntransition_steps = 5\n"
        "[dipoles]\nsnapshot_stresses_gpa = 1.0\n", encoding="utf-8")
    checks = []
    for command in ("mixing-curve", "mixing-map", "qw", "dipoles"):
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            code = cli_main([command, "--config", str(config),
                             "--out", str(out)])
            assert code == 0
            runs.append({f.name: f.read_bytes()
                         for f in sorted(out.iterdir())})
        identical = runs[0] == runs[1] and len(runs[0]) > 0
        checks.append((identical, f"{command} outputs differ"))
    outputs = []
    for _ in range(2):
        cli_main(["amplify", "--finger-length-mm", "1.5", "--gap-um", "20",
                  "--piezo-strain", "2e-4"])
        outputs.append(capsys.readouterr().out)
    checks.append((outputs[0] == outputs[1] and outputs[0].strip() != "",
                   "amplify output differs"))
    elapsed = time.perf_counter() - start
    _report(10, "determinism", checks, elapsed, budget=120.0)
