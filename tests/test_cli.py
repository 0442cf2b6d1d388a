import functools
import json

import numpy as np
import pytest

from strainkp import axis, kp_bulk, optics, qw
from strainkp.cli import _Grid, _write_table, main
from strainkp.elasticity import StrainState, biaxial_strain, uniaxial_sweep
from strainkp.materials import default_parameter_table

SMALL_CONFIG = """
[sweep]
stress_min_gpa = -2.0
stress_max_gpa = 2.0
steps = 5

[axis]
theta_steps = 4

[qw]
thicknesses_nm = 6
barrier_thickness_nm = 10
grid_points = 51
sweep_steps = 3

[emulation]
transition_steps = 5

[dipoles]
snapshot_stresses_gpa = 1.0
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    return path


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def oracle_text(columns, rows, output_format):
    # the per-value formatter the writer must reproduce byte for byte
    if output_format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(format(float(v), ".9g") for v in row)
                  for row in rows]
        return "\n".join(lines) + "\n"
    payload = {"columns": list(columns),
               "rows": [[float(format(float(v), ".9g")) for v in row]
                        for row in rows]}
    return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"


WRITER_TABLES = {
    "special": [(float("nan"), float("inf"), -float("inf")),
                (-0.0, 5e-324, 1e-29), (1e21, 123456789.5, -2.5)],
    "float32_int": [(np.float32(0.1), np.float32(-3.3e-7), np.int64(7)),
                    (np.int32(-2), 3, np.float32(1e30))],
    "mixed_tuples": [(0.1, np.float64(2.0 / 3.0), 1),
                     [np.float64(-1e-300), 1.0 / 3.0, np.float32(0.5)]],
    "ndarray": np.random.default_rng(7).standard_normal((6, 3))
    * np.logspace(-30, 30, 6)[:, None],
    "empty": [],
    # grid tables: the same specials on both axes and in the values
    "grid_special": _Grid(
        np.array([float("nan"), -0.0, 5e-324, 1e21]),
        np.array([float("inf"), -float("inf"), 1e21, -0.0, 5e-324]),
        np.array([[float("nan"), float("inf"), -float("inf"), -0.0, 5e-324],
                  [1e21, 0.1, -2.5, 1e-29, 123456789.5],
                  [-0.0, float("nan"), 2.0 / 3.0, 1e21, -1e-300],
                  [5e-324, -float("inf"), 7.0, float("inf"), -0.0]])),
    "grid_1x1": _Grid(np.array([0.5]), np.array([-0.0]),
                      np.array([[float("nan")]])),
    "grid_1xn": _Grid(np.array([1e21]),
                      np.array([5e-324, -float("inf"), 2.0 / 3.0]),
                      np.array([[float("inf"), -0.0, 1e-29]])),
}


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(WRITER_TABLES))
def test_write_table_matches_per_value_oracle(tmp_path, name,
                                              output_format):
    columns = ("a", "b", "c")
    rows = WRITER_TABLES[name]
    path = tmp_path / "sub" / f"t.{output_format}"
    _write_table(path, columns, rows, output_format)
    if isinstance(rows, _Grid):
        rows = [(a, b, rows.values[i, j])
                for i, a in enumerate(rows.first)
                for j, b in enumerate(rows.second)]
    assert path.read_bytes() \
        == oracle_text(columns, rows, output_format).encode("utf-8")


def test_grid_outputs_are_theta_major(tmp_path):
    # mixing-map and the angular-density snapshots against rows built one
    # grid point at a time, theta outermost
    cfg = tmp_path / "run.ini"
    cfg.write_text("[sweep]\nsteps = 3\n[axis]\ntheta_steps = 4\n"
                   "phi_deg = 30\n[dipoles]\nsnapshot_stresses_gpa = -0.7\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    assert main(["mixing-map", "--config", str(cfg), "--out", str(out)]) \
        == 0
    assert main(["dipoles", "--config", str(cfg), "--out", str(out)]) == 0

    p = default_parameter_table()["GaAs"]
    pre = biaxial_strain(-0.12, p)
    th, strain_xx, phh = axis.mixing_map(
        np.linspace(-2.0, 2.0, 3), pre, p,
        thetas=axis.default_theta_grid(4), phi=np.radians(30.0))
    rows = [(th[i], strain_xx[j], phh[i, j])
            for i in range(len(th)) for j in range(len(strain_xx))]
    assert (out / "mixing_map.csv").read_text(encoding="utf-8") \
        == oracle_text(("theta_rad", "strain_xx", "p_hh"), rows, "csv")

    _, (strain,) = uniaxial_sweep((-0.7,), p, pre)
    doublet = kp_bulk.top_valence_doublet(StrainState(*strain), p)
    dens = [optics.angular_density(s) for s in doublet]
    avg = 0.5 * (dens[0].density + dens[1].density)
    avg = avg / np.sum(avg * dens[0].weights)
    rows = [(dens[0].theta[i], dens[0].phi[j], avg[i, j])
            for i in range(dens[0].theta.size)
            for j in range(dens[0].phi.size)]
    assert (out / "angular_density_-0.7gpa.csv").read_text(encoding="utf-8") \
        == oracle_text(("theta_rad", "phi_rad", "density"), rows, "csv")


def test_amplify_factor(capsys):
    assert main(["amplify", "--finger-length-mm", "1.5",
                 "--gap-um", "20"]) == 0
    assert capsys.readouterr().out.strip() == "150"


def test_amplify_membrane_strain(capsys):
    assert main(["amplify", "--finger-length-mm", "1.5", "--gap-um", "60",
                 "--piezo-strain", "3e-4"]) == 0
    assert capsys.readouterr().out.strip() == "0.015"


def test_amplify_invalid_geometry(capsys):
    assert main(["amplify", "--finger-length-mm", "-1", "--gap-um", "20"]) \
        == 2


@pytest.mark.parametrize("flag", [
    ["--config", "/nonexistent.ini"],
    ["--out", "somewhere"],
    ["--format", "json"],
    ["--steps", "1"],
    ["--threads", "-5"],
])
def test_amplify_rejects_sweep_flags(flag, capsys):
    # amplify reads no config and writes no files: the sweep flags are
    # errors, not silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["amplify", "--finger-length-mm", "1.5", "--gap-um", "20",
              *flag])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_mixing_curve_default_row_count(tmp_path):
    out = tmp_path / "out"
    assert main(["mixing-curve", "--out", str(out)]) == 0
    for name in ("mixing_curve_z.csv", "mixing_curve_x.csv"):
        columns, rows = read_rows(out / name)
        assert columns == ["strain_xx", "p_hh", "p_lh", "p_so"]
        assert len(rows) == 201


def test_mixing_curve_steps_override(tmp_path):
    out = tmp_path / "out"
    assert main(["mixing-curve", "--out", str(out), "--steps", "2"]) == 0
    _, rows = read_rows(out / "mixing_curve_z.csv")
    assert len(rows) == 2


@pytest.mark.parametrize("command, field", [
    ("mixing-curve", "sweep steps"),
    ("qw", "qw sweep_steps"),
])
def test_steps_flag_below_two_exit_2(tmp_path, config, command, field,
                                     capsys):
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out),
                 "--steps", "1"]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert f"{field} must be at least 2, got 1" in err


def test_flags_override_config_before_validation(tmp_path):
    # the config alone is invalid; the flags replace the invalid values
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL_CONFIG.replace("sweep_steps = 3", "sweep_steps = 1")
                   + "[run]\noutput_format = xml\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["qw", "--config", str(cfg), "--out", str(out)]) == 2
    assert main(["qw", "--config", str(cfg), "--out", str(out),
                 "--steps", "3", "--format", "json"]) == 0
    payload = json.loads((out / "qw_mixing_6nm.json").read_text())
    assert len(payload["rows"]) == 3
    # --steps of qw sets the well sweep only
    payload = json.loads((out / "qw_transition_energy.json").read_text())
    assert len(payload["rows"]) == 5


def test_mixing_curve_json_mirror(tmp_path, config):
    out = tmp_path / "out"
    assert main(["mixing-curve", "--config", str(config), "--out", str(out),
                 "--format", "json"]) == 0
    payload = json.loads((out / "mixing_curve_z.json").read_text())
    assert payload["columns"] == ["strain_xx", "p_hh", "p_lh", "p_so"]
    assert len(payload["rows"]) == 5
    csv_out = tmp_path / "out_csv"
    assert main(["mixing-curve", "--config", str(config),
                 "--out", str(csv_out)]) == 0
    _, rows = read_rows(csv_out / "mixing_curve_z.csv")
    for json_row, csv_row in zip(payload["rows"], rows):
        assert json_row == [float(cell) for cell in csv_row]


def test_mixing_map_dimensions(tmp_path, config):
    out = tmp_path / "out"
    assert main(["mixing-map", "--config", str(config),
                 "--out", str(out)]) == 0
    columns, rows = read_rows(out / "mixing_map.csv")
    assert columns == ["theta_rad", "strain_xx", "p_hh"]
    assert len(rows) == 4 * 5


def test_mixing_map_edge_columns_match_curve_files(tmp_path, config):
    out = tmp_path / "out"
    assert main(["mixing-map", "--config", str(config),
                 "--out", str(out)]) == 0
    assert main(["mixing-curve", "--config", str(config),
                 "--out", str(out)]) == 0
    _, map_rows = read_rows(out / "mixing_map.csv")
    _, z_rows = read_rows(out / "mixing_curve_z.csv")
    _, x_rows = read_rows(out / "mixing_curve_x.csv")
    thetas = sorted({row[0] for row in map_rows})
    z_edge = [row[2] for row in map_rows if row[0] == thetas[0]]
    x_edge = [row[2] for row in map_rows if row[0] == thetas[-1]]
    assert z_edge == [row[1] for row in z_rows]
    assert x_edge == [row[1] for row in x_rows]


def test_qw_outputs(tmp_path, config):
    out = tmp_path / "out"
    assert main(["qw", "--config", str(config), "--out", str(out)]) == 0
    columns, rows = read_rows(out / "qw_mixing_6nm.csv")
    assert columns == ["strain_xx", "p_hh_z", "p_lh_z", "p_so_z",
                       "p_hh_x", "p_lh_x", "p_so_x", "converged"]
    assert len(rows) == 3
    middle = [float(c) for c in rows[1]]
    assert middle[0] == 0.0
    assert middle[1] == pytest.approx(1.0, abs=1e-9)  # pure HH_z row
    assert middle[7] in (0.0, 1.0)
    columns, rows = read_rows(out / "qw_transition_energy.csv")
    assert columns == ["strain_xx", "transition_ev"]
    assert len(rows) == 5


def test_dipoles_outputs(tmp_path, config):
    out = tmp_path / "out"
    assert main(["dipoles", "--config", str(config), "--out", str(out)]) == 0
    columns, rows = read_rows(out / "dipole_sweep.csv")
    assert columns == list(("strain_xx", "s_x", "s_y", "s_z",
                            "rate_x_ghz", "rate_y_ghz", "rate_z_ghz"))
    assert len(rows) == 5
    zero_row = [float(c) for c in rows[2]]
    assert zero_row[1] == pytest.approx(0.5, abs=1e-9)
    assert zero_row[2] == pytest.approx(0.5, abs=1e-9)
    assert zero_row[3] == pytest.approx(0.0, abs=1e-9)
    snapshot = out / "angular_density_1gpa.csv"
    columns, rows = read_rows(snapshot)
    assert columns == ["theta_rad", "phi_rad", "density"]
    assert len(rows) == 90 * 180
    total = sum(float(r[2]) for r in rows)
    assert total > 0


def test_determinism_byte_identical(tmp_path, config):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["mixing-curve", "--config", str(config),
                     "--out", str(out)]) == 0
    for name in ("mixing_curve_z.csv", "mixing_curve_x.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("threads, message", [
    ("0", "must be at least 1, got 0"),
    ("-5", "must be at least 1, got -5"),
    ("two", "not an integer: 'two'"),
])
def test_invalid_threads_exit_2(tmp_path, threads, message, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["mixing-curve", "--steps", "3", "--out", str(out),
              "--threads", threads])
    assert exc.value.code == 2
    assert not out.exists()
    assert f"--threads: {message}" in capsys.readouterr().err


def test_threads_do_not_change_output(tmp_path, config):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["dipoles", "--config", str(config), "--out", str(out_a)]) \
        == 0
    assert main(["dipoles", "--config", str(config), "--out", str(out_b),
                 "--threads", "4"]) == 0
    assert (out_a / "dipole_sweep.csv").read_bytes() \
        == (out_b / "dipole_sweep.csv").read_bytes()


@pytest.mark.parametrize("body", [
    "[sweep]\nsteps = 1\n",
    "[sweep]\nstress_min_gpa = 2.0\nstress_max_gpa = -2.0\n",
    "[run]\nmaterial = Unobtainium\n",
    "[bogus]\nkey = 1\n",
    "[sweep]\nstress_min_gpa = fast\n",
    "[qw]\ngrid_points = 50\n",
    "not an ini file",
])
def test_invalid_configs_exit_2(tmp_path, body, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(body, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["mixing-curve", "--config", str(bad),
                 "--out", str(out)]) == 2
    assert not out.exists()  # no partial outputs
    assert "configuration error" in capsys.readouterr().err


def test_qw_rejects_non_gaas_material(tmp_path, capsys):
    # the well is GaAs; another material's stiffness must not drive it
    bad = tmp_path / "alas.ini"
    bad.write_text("[run]\nmaterial = AlAs\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["qw", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "configuration error" in err and "[run] material" in err


@pytest.mark.parametrize("command, old, new, clash", [
    ("qw", "thicknesses_nm = 6", "thicknesses_nm = 12, 12.0000001, 4",
     "qw_mixing_12nm.csv"),
    ("dipoles", "snapshot_stresses_gpa = 1.0",
     "snapshot_stresses_gpa = -1.0, -1.0000001, 0.5",
     "angular_density_-1gpa.csv"),
], ids=["qw", "dipoles"])
def test_colliding_output_names_exit_2(tmp_path, command, old, new, clash,
                                       capsys, monkeypatch):
    # file names keep 6 significant digits, so these two configured values
    # would share one file and one table would be lost; the config is
    # rejected before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the config was rejected")

    monkeypatch.setattr(qw, "solve_qw", no_solve)
    monkeypatch.setattr(optics, "dipole_sweep", no_solve)
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL_CONFIG.replace(old, new), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "configuration error" in err and clash in err


def test_numerical_failure_exit_3(tmp_path, config, monkeypatch, capsys):
    # a doublet check that no pair can pass stands in for a crossing or
    # split doublet: a numerical failure, not a configuration error
    monkeypatch.setattr(kp_bulk, "_check_doublets", functools.partial(
        kp_bulk._check_doublets, degeneracy_atol=-1))
    assert main(["mixing-curve", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_qw_eigensolver_failure_exit_3(tmp_path, config, monkeypatch,
                                       capsys):
    # one subspace-iteration step from the seeded block cannot converge
    monkeypatch.setattr(qw, "_MAX_ITERATIONS", 1)
    assert main(["qw", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "did not converge" in err
    assert "residual" in err


def test_unwritable_output_exit_4(tmp_path, config, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    assert main(["mixing-curve", "--config", str(config),
                 "--out", str(blocker / "out")]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_missing_config_file_exit_2(tmp_path):
    assert main(["mixing-curve", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "out")]) == 2


def test_qw_transition_curve_hundred_mev_window(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[qw]\nthicknesses_nm = 6\nbarrier_thickness_nm = 10\n"
        "grid_points = 51\nsweep_steps = 3\n"
        "[emulation]\ntransition_steps = 201\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["qw", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_rows(out / "qw_transition_energy.csv")
    strain = np.array([float(r[0]) for r in rows])
    energy = np.array([float(r[1]) for r in rows])
    shift = energy - energy[np.argmin(np.abs(strain))]
    tension = strain >= 0
    reached = np.flatnonzero(np.abs(shift[tension]) >= 0.100)
    assert reached.size > 0
    at = strain[tension][reached[0]]
    assert 0.013 <= at <= 0.020


def test_float_formatting_nine_significant_digits(tmp_path, config):
    out = tmp_path / "out"
    assert main(["mixing-curve", "--config", str(config),
                 "--out", str(out)]) == 0
    text = (out / "mixing_curve_z.csv").read_text(encoding="utf-8")
    assert "\r" not in text
    for cell in text.splitlines()[1].split(","):
        digits = cell.split("e")[0].replace("-", "").replace(".", "")
        assert len(digits.lstrip("0")) <= 9
