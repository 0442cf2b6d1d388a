"""The batched bulk sweeps against the per-point library calls.

``mixing_curve``, ``mixing_map`` and ``dipole_sweep`` solve a whole stress
sweep with one stacked eigensolve; every row must equal what
``top_valence_doublet`` followed by ``project_hgs`` or ``dipole_strengths``
gives for that stress alone.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strainkp.axis import QuantizationAxis, mixing_curve, mixing_map, \
    project_hgs
from strainkp.elasticity import (StrainState, biaxial_strain, superpose,
                                 uniaxial_strain)
from strainkp.kp_bulk import top_valence_doublet
from strainkp.optics import (RateCalibration, dipole_strengths, dipole_sweep,
                             rates)

TOL = 1e-12

normal = st.floats(-3e-3, 3e-3)
shear = st.floats(-2e-3, 2e-3)
prestresses = st.builds(StrainState, normal, normal, normal,
                        shear, shear, shear)
angles = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))


@st.composite
def windows(draw):
    """A stress sweep (GPa) inside +-2 GPa, 2 to 9 points."""
    lo = draw(st.floats(-2.0, 1.5))
    hi = draw(st.floats(lo + 0.05, 2.0))
    return np.linspace(lo, hi, draw(st.integers(2, 9)))


def per_point_doublets(stresses, prestress, p):
    for sigma in stresses:
        strain = superpose(prestress, uniaxial_strain(sigma, p))
        yield strain, top_valence_doublet(strain, p)


@settings(max_examples=15, deadline=None)
@given(prestress=prestresses, angle=angles, stresses=windows())
def test_mixing_curve_matches_per_point(gaas, prestress, angle, stresses):
    axis = QuantizationAxis(*angle)
    rows, = mixing_curve(stresses, prestress, (axis,), gaas)
    assert rows.shape == (stresses.size, 4)
    for row, (strain, doublet) in zip(
            rows, per_point_doublets(stresses, prestress, gaas)):
        proj = project_hgs(doublet, axis)
        assert row == pytest.approx(
            [strain.exx, proj.p_hh, proj.p_lh, proj.p_so], abs=TOL)
        assert row[1:].sum() == pytest.approx(1.0, abs=TOL)


@settings(max_examples=15, deadline=None)
@given(prestress=prestresses, angle=angles, stresses=windows())
def test_mixing_map_matches_per_point(gaas, prestress, angle, stresses):
    theta, phi = angle
    thetas = np.array([0.0, theta, math.pi / 2.0])
    _, strain_xx, phh = mixing_map(stresses, prestress, gaas, thetas=thetas,
                                   phi=phi)
    assert phh.shape == (3, stresses.size)
    for j, (strain, doublet) in enumerate(
            per_point_doublets(stresses, prestress, gaas)):
        assert strain_xx[j] == pytest.approx(strain.exx, abs=TOL)
        for i, t in enumerate(thetas):
            expected = project_hgs(doublet, QuantizationAxis(t, phi)).p_hh
            assert phh[i, j] == pytest.approx(expected, abs=TOL)


@settings(max_examples=15, deadline=None)
@given(prestress=prestresses, stresses=windows(),
       lifetime=st.floats(50.0, 500.0))
def test_dipole_sweep_matches_per_point(gaas, prestress, stresses, lifetime):
    calibration = RateCalibration(lifetime)
    rows = dipole_sweep(stresses, prestress, gaas, calibration)
    assert rows.shape == (stresses.size, 7)
    for row, (strain, doublet) in zip(
            rows, per_point_doublets(stresses, prestress, gaas)):
        s = rates(dipole_strengths(doublet), calibration)
        assert row == pytest.approx(
            [strain.exx, s.s_x, s.s_y, s.s_z, s.r_x, s.r_y, s.r_z], abs=TOL)
        assert row[1:4].sum() == pytest.approx(1.0, abs=TOL)


def _bits(values):
    """The float64 bit patterns of ``values``, signed zeros apart."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("shears", [
    {}, {"exy": 2e-3}, {"eyz": -2e-3, "exz": 1e-3, "exy": 2e-3}],
    ids=["uniaxial", "exy", "sheared"])
def test_single_calls_match_the_sweep_rows_bit_for_bit(gaas, shears):
    # one stress at a time through the public calls gives the bits of the
    # sweep's row, along z, x and an oblique axis, and for the dipoles
    prestress = dataclasses.replace(biaxial_strain(-0.12, gaas), **shears)
    stresses = np.linspace(-2.0, 2.0, 41)
    axes = (QuantizationAxis(0.0), QuantizationAxis(math.pi / 2.0),
            QuantizationAxis(0.9, 0.4))
    curves = mixing_curve(stresses, prestress, axes, gaas)
    calibration = RateCalibration()
    dipoles = dipole_sweep(stresses, prestress, gaas, calibration)
    for i, (strain, doublet) in enumerate(
            per_point_doublets(stresses, prestress, gaas)):
        for axis, rows in zip(axes, curves):
            proj = project_hgs(doublet, axis)
            assert _bits(rows[i]) == _bits(
                [strain.exx, proj.p_hh, proj.p_lh, proj.p_so])
        s = rates(dipole_strengths(doublet), calibration)
        assert _bits(dipoles[i]) == _bits(
            [strain.exx, s.s_x, s.s_y, s.s_z, s.r_x, s.r_y, s.r_z])


def sweeps(stresses, prestress, p):
    return {"mixing_curve": lambda: mixing_curve(
                stresses, prestress, (QuantizationAxis(0.3),), p),
            "mixing_map": lambda: mixing_map(stresses, prestress, p),
            "dipole_sweep": lambda: dipole_sweep(stresses, prestress, p)}


@pytest.mark.parametrize("sweep", ["mixing_curve", "mixing_map",
                                   "dipole_sweep"])
@pytest.mark.parametrize("prestress_exx, sigma", [
    (None, 9.0),     # the uniaxial part alone passes |e| < 0.1
    (0.05, 5.0),     # only the superposed total does
])
def test_strain_bound_raises_as_per_point(gaas, sweep, prestress_exx, sigma):
    prestress = biaxial_strain(-0.12, gaas) if prestress_exx is None \
        else StrainState(prestress_exx)
    stresses = [0.0, sigma, 2.0 * sigma]
    with pytest.raises(ValueError, match="sanity bound") as per_point:
        list(per_point_doublets(stresses, prestress, gaas))
    with pytest.raises(ValueError, match="sanity bound") as batched:
        sweeps(stresses, prestress, gaas)[sweep]()
    assert str(batched.value) == str(per_point.value)
