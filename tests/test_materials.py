import dataclasses

import numpy as np
import pytest

from strainkp.materials import (_FIELD_KEYS, ParameterLoadError, algaas,
                                default_parameter_table, dump_parameter_table,
                                load_parameter_table, parse_parameter_table,
                                vegard)

MINIMAL_DOC = """
[GaAs]
band_gap_ev = 1.519
vb_edge_avg_ev = -6.92
spin_orbit_ev = 0.341
luttinger_gamma1 = 6.98
luttinger_gamma2 = 2.06
luttinger_gamma3 = 2.93
electron_mass_rel = 0.067
deform_ac_ev = -7.17
deform_av_ev = 1.16
deform_b_ev = -2.0
deform_d_ev = -4.8
elastic_c11_gpa = 122.1
elastic_c12_gpa = 56.6
elastic_c44_gpa = 60.0

[AlAs]
band_gap_ev = 3.099
vb_edge_avg_ev = -7.49
spin_orbit_ev = 0.28
luttinger_gamma1 = 3.76
luttinger_gamma2 = 0.82
luttinger_gamma3 = 1.42
electron_mass_rel = 0.15
deform_ac_ev = -5.64
deform_av_ev = 2.47
deform_b_ev = -2.3
deform_d_ev = -3.4
elastic_c11_gpa = 125.0
elastic_c12_gpa = 53.4
elastic_c44_gpa = 54.2
"""


def test_default_table_has_required_materials(table):
    assert "GaAs" in table and "AlAs" in table


def test_gaas_poisson_ratio_low_temperature(gaas):
    nu = gaas.poisson_ratio_100
    assert nu == pytest.approx(0.31, abs=0.01)
    assert 0.30 <= nu <= 0.32


def test_shipped_parameters_pass_invariants(table):
    for params in table.values():
        params.validate()


def test_band_edge_composition(gaas):
    assert gaas.vb_edge == pytest.approx(gaas.ev_av + gaas.delta / 3.0)
    assert gaas.cb_edge == pytest.approx(gaas.vb_edge + gaas.eg)


def test_empty_document_errors():
    with pytest.raises(ParameterLoadError, match="no materials"):
        parse_parameter_table("")


def test_missing_required_material_errors():
    doc = MINIMAL_DOC.split("[AlAs]")[0]
    with pytest.raises(ParameterLoadError, match="AlAs"):
        parse_parameter_table(doc)


def test_stability_violation_errors():
    doc = MINIMAL_DOC.replace("elastic_c12_gpa = 56.6",
                              "elastic_c12_gpa = 130.0")
    with pytest.raises(ParameterLoadError, match="stability"):
        parse_parameter_table(doc)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", list(_FIELD_KEYS))
def test_non_finite_field_errors(field, bad):
    # an infinite gap or c11 once loaded and gave a finite hole energy, and
    # a NaN d or an infinite gamma3 failed later as a non-Hermitian matrix
    key = _FIELD_KEYS[field]
    lines = MINIMAL_DOC.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(key))
    lines[at] = f"{key} = {bad}"
    with pytest.raises(ParameterLoadError,
                       match=rf"'GaAs'.*{key} must be finite \({field}="):
        parse_parameter_table("\n".join(lines))


def test_malformed_field_errors():
    doc = MINIMAL_DOC.replace("band_gap_ev = 1.519",
                              "band_gap_ev = one-point-five")
    with pytest.raises(ParameterLoadError, match="malformed"):
        parse_parameter_table(doc)


def test_missing_field_errors():
    doc = MINIMAL_DOC.replace("spin_orbit_ev = 0.341\n", "")
    with pytest.raises(ParameterLoadError, match="missing field"):
        parse_parameter_table(doc)


def test_default_section_is_rejected():
    # configparser would copy it into every material, so a section that
    # lacks a field would load without the missing-field error
    doc = "[DEFAULT]\ndeform_d_ev = 1.0\n" + MINIMAL_DOC.replace(
        "deform_d_ev = -3.4\n", "")
    with pytest.raises(ParameterLoadError,
                       match=r"\[DEFAULT\] keys are not supported"):
        parse_parameter_table(doc)


def test_load_from_path(tmp_path):
    f = tmp_path / "params.ini"
    f.write_text(MINIMAL_DOC, encoding="utf-8")
    table = load_parameter_table(f)
    assert table["GaAs"].eg == 1.519


def test_vegard_endpoints(gaas, alas):
    for field in dataclasses.fields(gaas):
        if field.name == "name":
            continue
        assert getattr(vegard(0.0, gaas, alas), field.name) \
            == getattr(gaas, field.name)
        assert getattr(vegard(1.0, gaas, alas), field.name) \
            == getattr(alas, field.name)


def test_vegard_midpoint_hand_arithmetic(gaas, alas):
    # independent recomputation of 0.6*GaAs + 0.4*AlAs on two fields
    mixed = vegard(0.4, gaas, alas)
    assert mixed.eg == pytest.approx(0.6 * 1.519 + 0.4 * 3.099, abs=1e-12)
    assert mixed.c11 == pytest.approx(0.6 * 122.1 + 0.4 * 125.0, abs=1e-12)


def test_vegard_linearity(gaas, alas, rng):
    for x in rng.uniform(0.0, 1.0, size=50):
        mixed = vegard(float(x), gaas, alas)
        for field in dataclasses.fields(gaas):
            if field.name == "name":
                continue
            a = getattr(gaas, field.name)
            b = getattr(alas, field.name)
            assert getattr(mixed, field.name) \
                == pytest.approx(a + x * (b - a), rel=1e-14, abs=1e-14)


def test_vegard_out_of_range(table, gaas, alas):
    # the first floats outside [0, 1] too, not only far ones, and NaN
    for x in (1.2, -0.1, np.nextafter(1.0, 2.0), np.nextafter(0.0, -1.0),
              float("nan")):
        for mix in (lambda: vegard(x, gaas, alas), lambda: algaas(x, table)):
            with pytest.raises(ValueError, match=r"alloy fraction must lie "
                                                 r"in \[0, 1\], got "):
                mix()


def _field_bits(material):
    return np.array([getattr(material, field) for field in _FIELD_KEYS]) \
        .view(np.uint64)


def test_algaas_endpoints_are_the_binaries_bit_for_bit(table, gaas, alas):
    # x = 0 is GaAs and x = 1 is AlAs in every field, signs of zero
    # included: a flat-band well is algaas(0.0, table) barriers around GaAs
    assert np.array_equal(_field_bits(algaas(0.0, table)), _field_bits(gaas))
    assert np.array_equal(_field_bits(algaas(1.0, table)), _field_bits(alas))


def test_algaas_barrier_name(table):
    barrier = algaas(0.4, table)
    assert barrier.name == "Al0.40Ga0.60As"
    barrier.validate()


def test_round_trip_idempotent(table):
    text = dump_parameter_table(table)
    again = parse_parameter_table(text)
    assert again == table
    assert dump_parameter_table(again) == text


def test_unknown_field_errors():
    doc = MINIMAL_DOC.replace("band_gap_ev = 1.519",
                              "band_gap_ev = 1.519\nbogus_key = 1.0")
    with pytest.raises(ParameterLoadError, match="unknown"):
        parse_parameter_table(doc)
