import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import strain_by_lu
from strainkp.elasticity import (ActuatorGeometry, StrainState, StressTensor,
                                 actuator_strain, biaxial_strain,
                                 stiffness_matrix, strain_from_stress,
                                 stress_from_strain, superpose,
                                 uniaxial_strain)
from strainkp.materials import algaas


def test_zero_stress_gives_zero_strain(gaas):
    strain = strain_from_stress(StressTensor(), gaas)
    assert np.allclose(strain.as_voigt(), 0.0)


def test_uniaxial_poisson_relation(gaas):
    strain = uniaxial_strain(1.0, gaas)
    nu = gaas.c12 / (gaas.c11 + gaas.c12)
    assert strain.eyy == pytest.approx(-nu * strain.exx, rel=1e-14)
    assert strain.eyy == strain.ezz
    assert strain.eyz == strain.exz == strain.exy == 0.0


def test_uniaxial_anisotropy_ratio(gaas):
    # e_xx / e_zz = -(c11 + c12)/c12, about -3.2 for GaAs
    strain = uniaxial_strain(0.5, gaas)
    ratio = strain.exx / strain.ezz
    assert ratio == pytest.approx(-(gaas.c11 + gaas.c12) / gaas.c12,
                                  rel=1e-12)
    assert ratio == pytest.approx(-3.2, abs=0.1)


def test_uniaxial_two_percent_transverse_contraction(gaas):
    young = (gaas.c11 - gaas.c12) * (gaas.c11 + 2 * gaas.c12) \
        / (gaas.c11 + gaas.c12)
    strain = uniaxial_strain(0.02 * young, gaas)
    assert strain.exx == pytest.approx(0.02, rel=1e-12)
    assert strain.eyy == pytest.approx(-0.0062, abs=2e-4)


def test_biaxial_relation(gaas):
    strain = biaxial_strain(-0.5, gaas)
    assert strain.exx == strain.eyy
    assert strain.ezz == pytest.approx(-2 * gaas.c12 / gaas.c11 * strain.exx,
                                       rel=1e-14)
    assert strain.ezz / strain.exx == pytest.approx(-0.9, abs=0.05)


def test_uniaxial_matches_full_inversion(gaas):
    # the closed-form inversion of a [100] stress is uniaxial_strain's
    # arithmetic, bit for bit
    for sigma in (-2.0, -0.3, 0.7, 2.0):
        direct = uniaxial_strain(sigma, gaas).as_voigt()
        solved = strain_from_stress(StressTensor(sxx=sigma), gaas).as_voigt()
        assert np.array_equal(direct, solved)


@settings(max_examples=300, deadline=None)
@given(stress=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
       scale=st.sampled_from([1e-3, 1.0]),
       material=st.sampled_from(["GaAs", "AlAs"]) | st.floats(0.0, 1.0))
# a subnormal strain, where eps * max|e| underflows to 0 but an ulp is
# 5e-324: the two solves differ there by one ulp
@example(stress=[0.0, 0.0, 2.2250738585072014e-308, 0.0, 0.0, 0.0],
         scale=1e-3, material="GaAs")
def test_closed_form_compliance_matches_the_lu_solve(table, stress, scale,
                                                     material):
    # every component within 8 ulps of the largest strain component
    p = table[material] if isinstance(material, str) \
        else algaas(material, table)
    sigma = StressTensor(*(scale * s for s in stress))
    closed = strain_from_stress(sigma, p).as_voigt()
    solved = strain_by_lu(sigma, p)
    bound = 8.0 * np.spacing(np.abs(solved).max())
    assert np.abs(closed - solved).max() <= bound


def test_biaxial_matches_full_inversion(gaas):
    for sigma in (-2.0, -0.12, 1.5):
        direct = biaxial_strain(sigma, gaas).as_voigt()
        solved = strain_from_stress(
            StressTensor(sxx=sigma, syy=sigma), gaas).as_voigt()
        assert np.max(np.abs(direct - solved)) < 1e-14


def test_round_trip_random_stresses(gaas, rng):
    for _ in range(1000):
        sigma = StressTensor(*rng.uniform(-2.0, 2.0, size=6))
        strain = strain_from_stress(sigma, gaas)
        back = stress_from_strain(strain, gaas)
        assert np.max(np.abs(back.as_voigt() - sigma.as_voigt())) < 1e-12


def test_stiffness_matrix_layout(gaas):
    c = stiffness_matrix(gaas)
    assert c[0, 0] == gaas.c11 and c[0, 1] == gaas.c12
    assert c[3, 3] == gaas.c44 and c[0, 3] == 0.0
    assert np.allclose(c, c.T)


def test_superpose_identities(gaas):
    a = uniaxial_strain(1.0, gaas)
    zero = StrainState()
    assert superpose(a, zero).as_voigt() == pytest.approx(a.as_voigt())
    minus = uniaxial_strain(-1.0, gaas)
    assert np.allclose(superpose(a, minus).as_voigt(), 0.0, atol=1e-18)


def test_superpose_prestress_plus_sweep_endpoint(gaas):
    # -120 MPa biaxial prestress plus 320 MPa uniaxial, componentwise
    pre = biaxial_strain(-0.12, gaas)
    uni = uniaxial_strain(0.32, gaas)
    total = superpose(pre, uni)
    assert total.as_voigt() == pytest.approx(pre.as_voigt() + uni.as_voigt())


def test_strain_sanity_bound():
    with pytest.raises(ValueError, match="sanity"):
        StrainState(exx=0.2)


def test_nonfinite_inputs_rejected():
    with pytest.raises(ValueError):
        StressTensor(sxx=float("nan"))
    with pytest.raises(ValueError):
        StrainState(exx=float("inf"))


def test_singular_stiffness_rejected(gaas):
    bad = dataclasses.replace(gaas, c12=gaas.c11 + 1.0)
    with pytest.raises(ValueError, match="stability"):
        strain_from_stress(StressTensor(sxx=1.0), bad)


def test_actuator_amplification_factor():
    geometry = ActuatorGeometry(finger_length_mm=1.5, gap_um=20.0)
    assert geometry.amplification == pytest.approx(150.0)


def test_actuator_zero_piezo_strain():
    geometry = ActuatorGeometry(1.5, 20.0)
    assert actuator_strain(geometry, 0.0) == 0.0


def test_actuator_membrane_strain():
    geometry = ActuatorGeometry(1.5, 60.0)
    assert actuator_strain(geometry, 3e-4) == pytest.approx(1.5e-2)


def test_actuator_invariants():
    with pytest.raises(ValueError):
        ActuatorGeometry(-1.0, 20.0)
    with pytest.raises(ValueError):
        ActuatorGeometry(1.5, 0.0)
    with pytest.raises(ValueError, match="amplify"):
        ActuatorGeometry(1e-6, 100.0)
    for length, gap in ((math.inf, 10.0), (math.nan, 10.0), (1.5, math.inf),
                        (1.5, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            ActuatorGeometry(length, gap)
    # finite inputs whose gain 2l/d overflows
    with pytest.raises(ValueError, match="overflows"):
        ActuatorGeometry(1e306, 1e-6)
    geometry = ActuatorGeometry(1.5, 20.0)
    for piezo in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            actuator_strain(geometry, piezo)


def test_strains_compare_by_their_six_components(gaas):
    # a strain is its components alone: how it was made takes no part in
    # == or hash
    fields = [f.name for f in dataclasses.fields(StrainState)]
    assert fields == ["exx", "eyy", "ezz", "eyz", "exz", "exy"]
    for strain in (strain_from_stress(StressTensor(sxx=0.4), gaas),
                   uniaxial_strain(0.4, gaas), biaxial_strain(-0.12, gaas)):
        bare = StrainState(*strain.as_voigt())
        assert strain == bare and hash(strain) == hash(bare)
